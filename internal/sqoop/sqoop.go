// Package sqoop implements bulk data transfer between the rdbms package and
// HDFS, modeled on Apache Sqoop: an import job splits a table on an integer
// column into ranges, runs one mapper per split in parallel, and writes one
// part file per mapper into a target HDFS directory. The paper's software
// layer uses Sqoop "to gather data from legacy database systems".
package sqoop

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/hdfs"
	"repro/internal/rdbms"
)

// Sentinel errors.
var (
	ErrBadMappers = errors.New("sqoop: mapper count must be positive")
	ErrBadTarget  = errors.New("sqoop: bad target directory")
)

// ImportConfig describes an import job.
type ImportConfig struct {
	Table     string
	SplitBy   string // integer column used to partition work
	Mappers   int
	TargetDir string // HDFS directory, e.g. /warehouse/crimes
}

// ImportResult summarizes a finished import.
type ImportResult struct {
	Rows      int
	PartFiles []string
	Splits    []Split
}

// Split is one mapper's key range [Lo, Hi).
type Split struct {
	Lo, Hi int64
}

// rowRecord is the serialized row format (JSON lines inside part files).
type rowRecord struct {
	Values []any `json:"values"`
}

// Import copies a table from db into fs under cfg.TargetDir.
func Import(db *rdbms.Database, fs *hdfs.Cluster, cfg ImportConfig) (*ImportResult, error) {
	if cfg.Mappers <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadMappers, cfg.Mappers)
	}
	if cfg.TargetDir == "" || cfg.TargetDir[0] != '/' {
		return nil, fmt.Errorf("%w: %q", ErrBadTarget, cfg.TargetDir)
	}
	table, err := db.Table(cfg.Table)
	if err != nil {
		return nil, err
	}
	minV, maxV, err := table.MinMaxInt(cfg.SplitBy)
	if err != nil {
		return nil, fmt.Errorf("split column: %w", err)
	}
	splits := computeSplits(minV, maxV, cfg.Mappers)

	type mapperOut struct {
		path string
		rows int
		err  error
	}
	outs := make([]mapperOut, len(splits))
	var wg sync.WaitGroup
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp Split) {
			defer wg.Done()
			rows, err := table.ScanIntRange(cfg.SplitBy, sp.Lo, sp.Hi)
			if err != nil {
				outs[i] = mapperOut{err: err}
				return
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, r := range rows {
				if err := enc.Encode(rowRecord{Values: r}); err != nil {
					outs[i] = mapperOut{err: fmt.Errorf("encode row: %w", err)}
					return
				}
			}
			path := cfg.TargetDir + "/part-m-" + fmt.Sprintf("%05d", i)
			if err := fs.Write(path, buf.Bytes()); err != nil {
				outs[i] = mapperOut{err: err}
				return
			}
			outs[i] = mapperOut{path: path, rows: len(rows)}
		}(i, sp)
	}
	wg.Wait()
	res := &ImportResult{Splits: splits}
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("mapper %d: %w", i, o.err)
		}
		res.Rows += o.rows
		res.PartFiles = append(res.PartFiles, o.path)
	}
	return res, nil
}

// computeSplits divides [min, max] into n contiguous half-open ranges whose
// union covers every value (the last range is widened by one to include max).
func computeSplits(minV, maxV int64, n int) []Split {
	if n < 1 {
		n = 1
	}
	span := maxV - minV + 1
	if span < int64(n) {
		n = int(span)
	}
	splits := make([]Split, 0, n)
	step := span / int64(n)
	rem := span % int64(n)
	lo := minV
	for i := 0; i < n; i++ {
		hi := lo + step
		if int64(i) < rem {
			hi++
		}
		splits = append(splits, Split{Lo: lo, Hi: hi})
		lo = hi
	}
	return splits
}
