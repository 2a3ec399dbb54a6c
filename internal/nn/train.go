package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Classifier wraps a network with a softmax cross-entropy training loop.
type Classifier struct {
	Net  Layer
	loss SoftmaxCrossEntropy
}

// NewClassifier creates a classification trainer around net.
func NewClassifier(net Layer) *Classifier { return &Classifier{Net: net} }

// TrainBatch runs one forward/backward pass on a batch and accumulates
// gradients (the caller applies the optimizer). It returns loss and accuracy.
func (c *Classifier) TrainBatch(x *tensor.Tensor, labels []int) (loss, acc float64, err error) {
	logits, err := c.Net.Forward(x, true)
	if err != nil {
		return 0, 0, err
	}
	loss, probs, grad, err := c.loss.Loss(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.Net.Backward(grad); err != nil {
		return 0, 0, err
	}
	return loss, Accuracy(probs, labels), nil
}

// TrainEpoch shuffles the dataset, runs minibatch SGD for one epoch, and
// returns mean loss and accuracy.
func (c *Classifier) TrainEpoch(x *tensor.Tensor, labels []int, batch int, opt Optimizer, rng *rand.Rand) (loss, acc float64, err error) {
	n := x.Dim(0)
	if n != len(labels) {
		return 0, 0, fmt.Errorf("%w: %d samples vs %d labels", ErrBadInput, n, len(labels))
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	perm := rng.Perm(n)
	var totalLoss, totalAcc float64
	batches := 0
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := perm[start:end]
		bx, err := GatherRows(x, idx)
		if err != nil {
			return 0, 0, err
		}
		bl := make([]int, len(idx))
		for i, j := range idx {
			bl[i] = labels[j]
		}
		l, a, err := c.TrainBatch(bx, bl)
		if err != nil {
			return 0, 0, err
		}
		opt.Step(c.Net.Params())
		totalLoss += l
		totalAcc += a
		batches++
	}
	return totalLoss / float64(batches), totalAcc / float64(batches), nil
}

// Evaluate returns accuracy on a held-out set without touching gradients.
func (c *Classifier) Evaluate(x *tensor.Tensor, labels []int) (float64, error) {
	logits, err := c.Net.Forward(x, false)
	if err != nil {
		return 0, err
	}
	return Accuracy(logits, labels), nil
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
	loss     SoftmaxCrossEntropy
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
// sharded across replicas, gradients are averaged into the master, the
// optimizer runs, and new weights are broadcast. It returns the mean loss.
func (t *ParallelTrainer) Step(x *tensor.Tensor, labels []int, opt Optimizer) (float64, error) {
	n := x.Dim(0)
	w := len(t.replicas)
	if n < w {
		w = n
	}
	type result struct {
		loss float64
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
			bl := labels[start:end]
			rep := t.replicas[i]
			logits, err := rep.Forward(bx, true)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			l, _, grad, err := t.loss.Loss(logits, bl)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			if _, err := rep.Backward(grad); err != nil {
				results[i] = result{err: err}
				return
			}
			results[i] = result{loss: l}
		}(i, start, end)
	}
	wg.Wait()

	masterParams := t.Master.Params()
	ZeroGrads(masterParams)
	total := 0.0
	for i := 0; i < shards; i++ {
		if results[i].err != nil {
			return 0, fmt.Errorf("worker %d: %w", i, results[i].err)
		}
		total += results[i].loss
		repParams := t.replicas[i].Params()
		for j, p := range masterParams {
			if err := p.Grad.AddInPlace(repParams[j].Grad); err != nil {
				return 0, err
			}
			repParams[j].ZeroGrad()
		}
	}
	inv := 1.0 / float64(shards)
	for _, p := range masterParams {
		p.Grad.Scale(inv)
	}
	opt.Step(masterParams)
	for i := range t.replicas {
		if err := CopyParams(t.replicas[i].Params(), masterParams); err != nil {
			return 0, err
		}
	}
	return total * inv, nil
}
