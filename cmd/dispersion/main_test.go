package main

import (
	"errors"
	"io"
	"testing"
)

// closer records its Close call and returns err.
type closer struct {
	err    error
	closed bool
}

func (c *closer) Close() error {
	c.closed = true
	return c.err
}

// closeAll reports the first failing close, and still closes every file.
func TestCloseAllReportsFirstError(t *testing.T) {
	first, second := errors.New("disk full"), errors.New("quota")
	files := []*closer{{}, {err: first}, {}, {err: second}}
	cs := make([]io.Closer, len(files))
	for i, f := range files {
		cs[i] = f
	}
	if err := closeAll(cs); err != first {
		t.Errorf("closeAll = %v, want %v", err, first)
	}
	for i, f := range files {
		if !f.closed {
			t.Errorf("file %d left open", i)
		}
	}
	if err := closeAll([]io.Closer{&closer{}, &closer{}}); err != nil {
		t.Errorf("closeAll over good files = %v", err)
	}
}
