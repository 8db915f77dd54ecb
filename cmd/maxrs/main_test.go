package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxrs"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]maxrs.Algorithm{
		"exact":      maxrs.ExactMaxRS,
		"ExactMaxRS": maxrs.ExactMaxRS,
		"inmemory":   maxrs.InMemory,
		"mem":        maxrs.InMemory,
	}
	for in, want := range cases {
		got, err := parseAlgorithm(in)
		if err != nil {
			t.Fatalf("parseAlgorithm(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("parseAlgorithm(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"quantum", "naive", "asb"} {
		_, err := parseAlgorithm(in)
		if err == nil {
			t.Fatalf("parseAlgorithm(%q) should fail", in)
		}
		if !strings.Contains(err.Error(), "maxrsbench -exp=fig12") {
			t.Fatalf("parseAlgorithm(%q) error %q does not point at the figure experiments", in, err)
		}
	}
}

func TestReadObjects(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	content := "# header\n1,2\n3,4,5\n\n  6 , 7 , 8 \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	objs, err := readObjects(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objects, want 3", len(objs))
	}
	if objs[0].Weight != 1 {
		t.Fatalf("default weight = %g, want 1", objs[0].Weight)
	}
	if objs[1].Weight != 5 || objs[2].X != 6 || objs[2].Weight != 8 {
		t.Fatalf("parse mismatch: %+v", objs)
	}
}

func TestReadObjectsErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"short.csv": "1\n",
		"badx.csv":  "x,2\n",
		"bady.csv":  "1,y\n",
		"badw.csv":  "1,2,w\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readObjects(path); err == nil {
			t.Fatalf("%s should fail", name)
		}
	}
	if _, err := readObjects(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file should fail")
	}
}
