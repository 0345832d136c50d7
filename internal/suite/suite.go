// Package suite provides the 14-program benchmark suite standing in for
// the paper's Table 1 (the SPEC92 C programs plus awk, bison, cholesky,
// gs, mpeg, and water). Each program is written in the supported C
// subset and ships with at least four inputs, so profiles can be scored
// against held-out inputs exactly as the paper does. The programs are
// synthetic but preserve each original's structural character — the
// property the estimators are sensitive to (see DESIGN.md).
package suite

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"staticest"
)

// Input is one profiling input for a program.
type Input struct {
	Name  string
	Args  []string
	Stdin []byte
}

// Program is one suite member.
type Program struct {
	Name        string
	Description string
	Source      string
	Inputs      []Input
	// TimingInput, when set, is a held-out input used only by the
	// selective-optimization experiment (Figure 10).
	TimingInput *Input
}

// Lines counts non-blank source lines (the paper's Table 1 reports
// source lines).
func Lines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Compile compiles the program through the full pipeline.
func (p *Program) Compile() (*staticest.Unit, error) {
	return staticest.Compile(p.Name+".c", []byte(p.Source))
}

// Programs returns the full suite in the paper's Table 1 order: a fresh
// slice of programs that every caller shares, so no caller may write a
// Program or its Inputs.
func Programs() []*Program {
	return slices.Clone(programs())
}

// programs builds the suite, and generates its inputs, once per process.
var programs = sync.OnceValue(func() []*Program {
	return []*Program{
		Alvinn(),
		Compress(),
		Ear(),
		Eqntott(),
		Espresso(),
		GCC(),
		SC(),
		Xlisp(),
		Awk(),
		Bison(),
		Cholesky(),
		GS(),
		MPEG(),
		Water(),
	}
})

// ByName returns the named program, shared as Programs' are, or an
// error listing valid names.
func ByName(name string) (*Program, error) {
	for _, p := range programs() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range programs() {
		names = append(names, p.Name)
	}
	return nil, fmt.Errorf("unknown program %q (have %s)", name, strings.Join(names, ", "))
}

var (
	compiledMu sync.Mutex
	compiled   = map[string]*staticest.Unit{}
)

// CompileCached compiles a suite program once per process (the
// evaluation harness and benchmarks reuse units heavily).
func (p *Program) CompileCached() (*staticest.Unit, error) {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if u, ok := compiled[p.Name]; ok {
		return u, nil
	}
	u, err := p.Compile()
	if err != nil {
		return nil, err
	}
	compiled[p.Name] = u
	return u, nil
}
