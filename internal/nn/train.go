package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// HeadLoss scores one head's raw output for a batch, returning the loss and
// its gradient with respect to that output. The caller builds it from the
// batch's targets: class labels for a classifier or the recognizer,
// ground-truth boxes for the detector.
type HeadLoss func(out *tensor.Tensor) (float64, *tensor.Tensor, error)

// epoch is the one epoch loop every model trains through: one rng.Perm
// orders the rows of x, and each batch of up to batch rows in that order
// (the last may be short) is gathered, takes one step and then one optimizer
// step over params. It returns the mean of the steps' two losses.
func epoch(x *tensor.Tensor, batch int, params []*Param, opt Optimizer, rng *rand.Rand, step func(bx *tensor.Tensor, idx []int) (float64, float64, error)) (loss1, loss2 float64, err error) {
	n := x.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	perm := rng.Perm(n)
	batches := 0
	for start := 0; start < n; start += batch {
		idx := perm[start:min(start+batch, n)]
		bx, err := GatherRows(x, idx)
		if err != nil {
			return 0, 0, err
		}
		l1, l2, err := step(bx, idx)
		if err != nil {
			return 0, 0, err
		}
		opt.Step(params)
		loss1 += l1
		loss2 += l2
		batches++
	}
	if batches > 0 {
		loss1 /= float64(batches)
		loss2 /= float64(batches)
	}
	return loss1, loss2, nil
}

// trainStep runs net forward on a batch in training mode, scores its output
// with loss and backpropagates, accumulating gradients into net's
// parameters. The caller applies an Optimizer afterwards.
func trainStep(net Layer, x *tensor.Tensor, loss HeadLoss) (float64, error) {
	out, err := net.Forward(x, true)
	if err != nil {
		return 0, err
	}
	l, grad, err := loss(out)
	if err != nil {
		return 0, err
	}
	if _, err := net.Backward(grad); err != nil {
		return 0, err
	}
	return l, nil
}

// TrainEpoch runs one epoch of a one-head network over x through the epoch
// loop, scoring each batch under lossFor(its row indices), and returns the
// mean loss over the batches.
func TrainEpoch(net Layer, x *tensor.Tensor, batch int, opt Optimizer, rng *rand.Rand, lossFor func(idx []int) HeadLoss) (float64, error) {
	loss, _, err := epoch(x, batch, net.Params(), opt, rng, func(bx *tensor.Tensor, idx []int) (float64, float64, error) {
		l, err := trainStep(net, bx, lossFor(idx))
		return l, 0, err
	})
	return loss, err
}

// ParallelTrainer implements synchronous data-parallel training, the
// "data parallelism ... distributed among multiple nodes and multiple
// workers per node" capability the paper attributes to its software layer.
// Each worker owns a model replica; every step, workers compute gradients on
// disjoint shards concurrently, the trainer averages the gradients into the
// master replica, applies the optimizer, and broadcasts updated weights.
type ParallelTrainer struct {
	Master   Layer
	replicas []Layer
}

// NewParallelTrainer builds a trainer with workers replicas created by
// factory. The factory must produce architecturally identical models.
func NewParallelTrainer(master Layer, workers int, factory func() Layer) (*ParallelTrainer, error) {
	if workers < 1 {
		return nil, fmt.Errorf("%w: %d workers", ErrBadInput, workers)
	}
	t := &ParallelTrainer{Master: master}
	for i := 0; i < workers; i++ {
		r := factory()
		if err := CopyParams(r.Params(), master.Params()); err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		t.replicas = append(t.replicas, r)
	}
	return t, nil
}

// Step performs one synchronous data-parallel step on a batch: the batch is
// sharded across replicas, each shard takes one training step under
// lossFor(its row indices in x), the shards' gradients are averaged into the
// master, each weighted by its share of the batch's rows, the optimizer
// runs, and new weights are broadcast. Shards are uneven when the workers do
// not divide the batch; the weighting makes the step the full batch's
// either way. lossFor's losses are called concurrently. It returns the shard
// losses averaged with the same weights.
func (t *ParallelTrainer) Step(x *tensor.Tensor, opt Optimizer, lossFor func(idx []int) HeadLoss) (float64, error) {
	n := x.Dim(0)
	w := len(t.replicas)
	if n < w {
		w = n
	}
	type result struct {
		loss float64
		rows int
		err  error
	}
	results := make([]result, w)
	var wg sync.WaitGroup
	per := (n + w - 1) / w
	shards := 0
	for i := 0; i < w; i++ {
		start := i * per
		if start >= n {
			break
		}
		end := start + per
		if end > n {
			end = n
		}
		shards++
		wg.Add(1)
		go func(i, start, end int) {
			defer wg.Done()
			idx := make([]int, end-start)
			for j := range idx {
				idx[j] = start + j
			}
			bx, err := GatherRows(x, idx)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			l, err := trainStep(t.replicas[i], bx, lossFor(idx))
			results[i] = result{loss: l, rows: len(idx), err: err}
		}(i, start, end)
	}
	wg.Wait()

	masterParams := t.Master.Params()
	ZeroGrads(masterParams)
	loss := 0.0
	for i := 0; i < shards; i++ {
		if results[i].err != nil {
			return 0, fmt.Errorf("worker %d: %w", i, results[i].err)
		}
		share := float64(results[i].rows) / float64(n)
		loss += share * results[i].loss
		repParams := t.replicas[i].Params()
		for j, p := range masterParams {
			if err := p.Grad.AxpyInPlace(share, repParams[j].Grad); err != nil {
				return 0, err
			}
			repParams[j].ZeroGrad()
		}
	}
	opt.Step(masterParams)
	for i := range t.replicas {
		if err := CopyParams(t.replicas[i].Params(), masterParams); err != nil {
			return 0, err
		}
	}
	return loss, nil
}
