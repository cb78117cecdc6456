package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SweepVersion identifies the on-disk sweep envelope format.
const SweepVersion = "dvbp-sweep/v1"

// SweepValue is one shard's result, keyed by its global shard index.
type SweepValue[T any] struct {
	Index int `json:"index"`
	Value T   `json:"value"`
}

// Sweep is the serialisable outcome of one (possibly partial) sharded
// experiment invocation. A full run carries every shard's value; a run
// restricted by a ShardSlice carries only its slice, and MergeSweeps
// reassembles slices into the full sweep. Values are always sorted by shard
// index and grids are canonical JSON, so encoding a sweep is byte-identical
// for any worker count and any partition into slices (the determinism
// contract, DESIGN.md §9).
type Sweep[T any] struct {
	Version    string `json:"version"`
	Experiment string `json:"experiment"`
	// Grid is the canonical JSON of the experiment's result-affecting
	// configuration. Parts must agree on it byte-for-byte to merge.
	Grid json.RawMessage `json:"grid"`
	// Shards is the total shard count of the sweep (not of this slice).
	Shards int             `json:"shards"`
	Slice  ShardSlice      `json:"slice"`
	Values []SweepValue[T] `json:"values"`
}

// newSweep builds a slice-restricted sweep document from a dense result
// vector, keeping only the indices the slice selects.
func newSweep[T any](experiment string, grid any, slice ShardSlice, dense []T) (*Sweep[T], error) {
	g, err := json.Marshal(grid)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshal %s grid: %w", experiment, err)
	}
	s := &Sweep[T]{Version: SweepVersion, Experiment: experiment, Grid: g, Shards: len(dense), Slice: slice}
	for _, i := range slice.Indices(len(dense)) {
		s.Values = append(s.Values, SweepValue[T]{Index: i, Value: dense[i]})
	}
	return s, nil
}

// validate checks the envelope's internal consistency.
func (s *Sweep[T]) validate() error {
	if s.Version != SweepVersion {
		return fmt.Errorf("experiments: sweep version %q, want %q", s.Version, SweepVersion)
	}
	if err := s.Slice.Validate(); err != nil {
		return err
	}
	for _, v := range s.Values {
		if v.Index < 0 || v.Index >= s.Shards {
			return fmt.Errorf("experiments: sweep value index %d outside [0,%d)", v.Index, s.Shards)
		}
		if !s.Slice.Selects(v.Index) {
			return fmt.Errorf("experiments: sweep value index %d outside slice %s", v.Index, s.Slice)
		}
	}
	return nil
}

// Complete reports whether the sweep covers every shard.
func (s *Sweep[T]) Complete() bool { return len(s.Values) == s.Shards }

// Dense returns the full index-ordered result vector; it fails unless the
// sweep is complete (merge partial slices first).
func (s *Sweep[T]) Dense() ([]T, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("experiments: sweep slice %s covers %d of %d shards; merge all slices first",
			s.Slice, len(s.Values), s.Shards)
	}
	out := make([]T, s.Shards)
	seen := make([]bool, s.Shards)
	for _, v := range s.Values {
		if seen[v.Index] {
			return nil, fmt.Errorf("experiments: duplicate sweep value for shard %d", v.Index)
		}
		seen[v.Index] = true
		out[v.Index] = v.Value
	}
	return out, nil
}

// MergeSweeps reassembles slice parts of one experiment into a single sweep.
// Parts must share version, experiment, grid and shard count; their index
// sets must be disjoint and jointly cover every shard. The merged sweep is
// canonical: whole-space slice, values sorted by index — so its encoding is
// byte-identical no matter how the work was partitioned.
func MergeSweeps[T any](parts ...*Sweep[T]) (*Sweep[T], error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("experiments: no sweep parts to merge")
	}
	first := parts[0]
	if err := first.validate(); err != nil {
		return nil, err
	}
	merged := &Sweep[T]{
		Version:    SweepVersion,
		Experiment: first.Experiment,
		Grid:       first.Grid,
		Shards:     first.Shards,
	}
	seen := make([]bool, first.Shards)
	for pi, p := range parts {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("experiments: part %d: %w", pi, err)
		}
		if p.Experiment != first.Experiment {
			return nil, fmt.Errorf("experiments: part %d is %q, part 0 is %q", pi, p.Experiment, first.Experiment)
		}
		if p.Shards != first.Shards {
			return nil, fmt.Errorf("experiments: part %d has %d shards, part 0 has %d", pi, p.Shards, first.Shards)
		}
		if !bytes.Equal(p.Grid, first.Grid) {
			return nil, fmt.Errorf("experiments: part %d was run with a different configuration", pi)
		}
		for _, v := range p.Values {
			if seen[v.Index] {
				return nil, fmt.Errorf("experiments: shard %d appears in more than one part", v.Index)
			}
			seen[v.Index] = true
			merged.Values = append(merged.Values, v)
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("experiments: shard %d missing from every part", i)
		}
	}
	sort.Slice(merged.Values, func(a, b int) bool { return merged.Values[a].Index < merged.Values[b].Index })
	return merged, nil
}

// EncodeJSON writes the sweep as indented JSON with values in index order —
// the canonical byte representation the determinism tests compare.
func (s *Sweep[T]) EncodeJSON(w io.Writer) error {
	sort.Slice(s.Values, func(a, b int) bool { return s.Values[a].Index < s.Values[b].Index })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSweep reads one sweep document, checking the envelope and (when
// experiment is non-empty) the experiment name.
func DecodeSweep[T any](r io.Reader, experiment string) (*Sweep[T], error) {
	var s Sweep[T]
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiments: decode sweep: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if experiment != "" && s.Experiment != experiment {
		return nil, fmt.Errorf("experiments: sweep is %q, want %q", s.Experiment, experiment)
	}
	return &s, nil
}
