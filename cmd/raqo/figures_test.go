package main

import (
	"bytes"
	"strings"
	"testing"

	"raqo/internal/experiments"
)

// TestTraceCmdPrintsFigure1 holds `raqo trace` at its default seed to the
// report `raqo figure fig1` prints, byte for byte.
func TestTraceCmdPrintsFigure1(t *testing.T) {
	trace := captureStdout(t, func() error { return traceCmd(nil) })
	fig := captureStdout(t, func() error { return figureCmd([]string{"fig1"}) })
	if !bytes.Equal(trace, fig) {
		t.Errorf("raqo trace:\n%s\nraqo figure fig1:\n%s", trace, fig)
	}
}

// TestTreesCmdPrintsFigure11Trees holds `raqo trees -engine E` to the tree
// Figure 11 renders for engine E.
func TestTreesCmdPrintsFigure11Trees(t *testing.T) {
	rep, err := experiments.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"hive", "spark"} {
		header := engine + " RAQO tree:\n"
		var tree string
		for _, n := range rep.Notes {
			if strings.HasPrefix(n, header) {
				tree = strings.TrimPrefix(n, header)
			}
		}
		if tree == "" {
			t.Fatalf("figure 11 renders no %s tree", engine)
		}
		out := string(captureStdout(t, func() error { return treesCmd([]string{"-engine", engine}) }))
		if !strings.HasSuffix(out, "\n\n"+tree) {
			t.Errorf("raqo trees -engine %s:\n%s\nfigure 11's %s tree:\n%s", engine, out, engine, tree)
		}
	}
}
