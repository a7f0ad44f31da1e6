package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// corpusLine is one `hiway` invocation of the identity corpus (identity.txt
// at the repository root): its line number, its text, its arguments with
// every definition expanded, and, once run, its golden entry.
type corpusLine struct {
	no    int
	text  string
	args  []string
	entry string
}

// definition is a corpus line name='words', as one word.
var definition = regexp.MustCompile(`^([a-z_]+)=(.*)$`)

// parseCorpus reads the corpus: blank lines, # comments, name='words'
// definitions, and hiway invocations, each given once.
func parseCorpus(src string) ([]corpusLine, error) {
	defs := map[string][]string{}
	var lines []corpusLine
	seen := map[string]bool{}
	for i, text := range strings.Split(src, "\n") {
		if text = strings.TrimSpace(text); text == "" || text[0] == '#' {
			continue
		}
		words, err := shellWords(text, defs)
		if err != nil {
			return nil, fmt.Errorf("identity.txt:%d: %v", i+1, err)
		}
		if m := definition.FindStringSubmatch(words[0]); m != nil && len(words) == 1 {
			defs[m[1]] = strings.Fields(m[2])
			continue
		}
		if words[0] != "hiway" || seen[text] {
			return nil, fmt.Errorf("identity.txt:%d: want a definition or a hiway invocation not given before", i+1)
		}
		seen[text] = true
		lines = append(lines, corpusLine{no: i + 1, text: text, args: words[1:]})
	}
	return lines, nil
}

// shellWords splits a line into words as sh does for the corpus's subset:
// single quotes keep their text whole, and an unquoted word $name stands for
// the words defined as name.
func shellWords(line string, defs map[string][]string) ([]string, error) {
	var words []string
	var w []byte
	inWord, quoted, inQuote := false, false, false
	end := func() error {
		defer func() { w, inWord, quoted = w[:0], false, false }()
		switch s := string(w); {
		case !inWord:
		case quoted || s[0] != '$':
			words = append(words, s)
		case defs[s[1:]] == nil:
			return fmt.Errorf("%s is not defined", s)
		default:
			words = append(words, defs[s[1:]]...)
		}
		return nil
	}
	for _, c := range []byte(line) {
		switch {
		case c == '\'':
			inQuote, inWord, quoted = !inQuote, true, true
		case c == ' ' && !inQuote:
			if err := end(); err != nil {
				return nil, err
			}
		default:
			w, inWord = append(w, c), true
		}
	}
	if inQuote {
		return nil, errors.New("unbalanced quote")
	}
	return words, end()
}

// corpus is one run of the corpus: every line with its entry, and each metric
// family its -metrics snapshots export, as "kind{label}" forms.
type corpus struct {
	lines    []corpusLine
	families map[string]map[string]bool
	took     time.Duration
}

// runCorpus runs the corpus once per test binary, every line in order, in
// process, in one scratch directory that links examples/. A line's entry is
// its text, a tab, then `exit=N stdout=D`, `stderr=D` if it wrote to stderr,
// and `name=D` for each file it wrote, by name; D is a digest of the bytes.
var runCorpus = sync.OnceValues(func() (*corpus, error) {
	start := time.Now()
	src, err := os.ReadFile(filepath.Join("..", "..", "identity.txt"))
	if err != nil {
		return nil, err
	}
	c := &corpus{families: map[string]map[string]bool{}}
	if c.lines, err = parseCorpus(string(src)); err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "hiway-identity")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer os.Chdir(wd)
	if err := errors.Join(os.Chdir(dir), os.Symlink(filepath.Join(wd, "..", "..", "examples"), "examples")); err != nil {
		return nil, err
	}
	for i, l := range c.lines {
		var stdout, stderr bytes.Buffer
		entry := fmt.Sprintf("%s\texit=%d stdout=%s", l.text, run(l.args, &stdout, &stderr), digest(stdout.Bytes()))
		if stderr.Len() > 0 {
			entry += " stderr=" + digest(stderr.Bytes())
		}
		err := written(func(name string, data []byte) {
			entry += " " + name + "=" + digest(data)
			if strings.HasSuffix(name, ".prom") {
				promFamilies(data, c.families)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("identity.txt:%d: %v", l.no, err)
		}
		c.lines[i].entry = entry
	}
	c.took = time.Since(start)
	return c, nil
})

// unwritten is the modification time written gives every file it visits, so
// a file whose time differs after a line is one the line wrote.
var unwritten = time.Unix(1, 0)

// written visits, by name, every regular file in the working directory that
// was created or written since the last call.
func written(visit func(name string, data []byte)) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil || info.ModTime().Equal(unwritten) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(path, data)
		return os.Chtimes(path, unwritten, unwritten)
	})
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// promFamilies adds each family of a Prometheus text snapshot to families as
// "kind{label}", the label its series carry ("" for none; a histogram's le
// is its own).
func promFamilies(snapshot []byte, families map[string]map[string]bool) {
	kinds, labels := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(string(snapshot), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
		} else if name, rest, ok := strings.Cut(line, "{"); ok && kinds[name] != "histogram" {
			labels[name], _, _ = strings.Cut(rest, "=")
		}
	}
	for name, kind := range kinds {
		if families[name] == nil {
			families[name] = map[string]bool{}
		}
		families[name][kind+"{"+labels[name]+"}"] = true
	}
}

// corpusRun is the corpus run the tests below share.
func corpusRun(t *testing.T) *corpus {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the whole identity corpus")
	}
	c, err := runCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIdentity runs the identity corpus and compares every line's exit code,
// stdout, stderr and written files with its entry in identity.golden. A
// mismatch names the line and each artifact that differs, and prints the
// line's corrected entry after "corrected line: ".
func TestIdentity(t *testing.T) {
	c := corpusRun(t)
	t.Logf("%d corpus lines in %v", len(c.lines), c.took.Round(time.Millisecond))
	raw, err := os.ReadFile(filepath.Join("..", "..", "identity.golden"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, entry := range strings.Split(string(raw), "\n") {
		if cmd, _, ok := strings.Cut(entry, "\t"); ok {
			golden[cmd] = entry
		}
	}
	for _, l := range c.lines {
		if want := golden[l.text]; want != l.entry {
			t.Errorf("identity.txt:%d: %s\ndiffers from identity.golden in %s\ncorrected line: %s",
				l.no, l.text, strings.Join(artifactDiff(want, l.entry), ", "), l.entry)
		}
		delete(golden, l.text)
	}
	for cmd := range golden {
		t.Errorf("identity.golden: %s: no such corpus line; delete its entry", cmd)
	}
}

// artifactDiff names the artifacts whose digests differ between two entries
// of one line, one missing from either counting as differing.
func artifactDiff(want, got string) []string {
	digests := func(entry string) map[string]string {
		m := map[string]string{}
		_, list, _ := strings.Cut(entry, "\t")
		for _, a := range strings.Fields(list) {
			name, d, _ := strings.Cut(a, "=")
			m[name] = d
		}
		return m
	}
	w, g := digests(want), digests(got)
	var names []string
	for name := range w {
		if g[name] != w[name] {
			names = append(names, name)
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TestMetricsDocumented holds OBSERVABILITY.md's metric taxonomy to the
// snapshots the corpus's -metrics runs write (sim, load, elastic and serve
// -deterministic): every exported family has a row with its kind and label,
// and every row's family is exported by some run.
func TestMetricsDocumented(t *testing.T) {
	c := corpusRun(t)
	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	row := regexp.MustCompile("(?m)^\\| `(hiway_[a-z0-9_]+)(?:\\{([a-z_]+)=…\\})?` \\| (counter|gauge|histogram) \\|")
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = m[3] + "{" + m[2] + "}"
	}
	for name, forms := range c.families {
		for form := range forms {
			if rows[name] != form {
				t.Errorf("%s is exported as %s; OBSERVABILITY.md documents it as %q", name, form, rows[name])
			}
		}
	}
	for name := range rows {
		if c.families[name] == nil {
			t.Errorf("OBSERVABILITY.md documents %s, which no corpus snapshot exports", name)
		}
	}
}
