package dax

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// constructs has one document per point of the reader's parity contract
// with encoding/xml, and whether both must accept it.
var constructs = []struct {
	name, src string
	ok        bool
}{
	// Before the root.
	{"declaration 1.0 utf-8", `<?xml version='1.0' encoding='utf-8'?><adag name="d"/>`, true},
	{"declaration order", `<?xml encoding="UTF-8" version="1.0" standalone="yes"?><adag/>`, true},
	{"declaration version", `<?xml version="1.1"?><adag/>`, false},
	{"declaration encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><adag/>`, false},
	{"declaration inside", `<adag><job id="a" name="t"><?xml version="2.0"?></job></adag>`, false},
	{"other pi target", `<?xml-stylesheet href="x"?><?xmlversion="9"?><?a:b:c?><adag/>`, true},
	{"misc before root", "<!-- c -->\n<?pi data?>\n<!DOCTYPE adag SYSTEM \"adag.dtd\">\n<adag name=\"m\"/>", true},
	{"directive quotes", `<!DOCTYPE a "q>q" 'x>' [ ] ><!>x><adag/>`, true},
	{"text before root", `junk &amp; text <adag name="t"/>`, true},
	{"bad text before root", `junk & text <adag/>`, false},
	{"bom", "\uFEFF<?xml version=\"1.0\"?><adag name=\"b\"><job id=\"a\" name=\"t\"/></adag>", true},
	{"end tag before root", `</x><adag/>`, false},
	{"cdata before root", `<![CDATA[<x>]]><adag/>`, true},
	{"no root", `<?xml version="1.0"?><!-- nothing -->`, false},
	{"empty", ``, false},
	{"after the root", `<adag name="x"></adag><<not xml &`, true},
	// Names and text.
	{"prefixed root", `<p:adag xmlns:p="urn:p" name="n"><p:job id="a" name="t"></p:job></p:adag>`, true},
	{"wrong root", `<dag/>`, false},
	{"two colons", `<a:b:adag/>`, false},
	{"leading colon", `<:adag/>`, false},
	{"mismatched end", `<adag><job id="a" name="t"></jbo></adag>`, false},
	{"end prefix differs", `<adag><p:job id="a" name="t"></job></adag>`, false},
	{"name starts with digit", `<adag><1job/></adag>`, false},
	{"name with dot and dash", `<adag><x.y-z/></adag>`, true},
	{"invalid utf-8", "<adag>\xff</adag>", false},
	{"control character", "<adag name=\"\x01\"/>", false},
	{"noncharacter", "<adag>\uFFFE</adag>", false},
	{"non-ASCII text", "<adag name=\"Mosaïk\">€ \U0001F5FA</adag>", true},
	{"nul reference", `<adag>&#0;</adag>`, false},
	{"surrogate reference", `<adag name="&#xD800;"/>`, true},
	{"noncharacter reference", `<adag name="&#xFFFE;"/>`, false},
	{"references", `<adag name="&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;"/>`, true},
	{"unknown entity", `<adag name="&nbsp;"/>`, false},
	{"uppercase X", `<adag name="&#X41;"/>`, false},
	{"no semicolon", `<adag name="&amp"/>`, false},
	{"carriage returns", "<adag name=\"a\r\nb\rc&#13;\nd\"><job id=\"j\" name=\"t\"><argument>x\r\ny\r\r\nz</argument></job></adag>", true},
	{"cdata end in text", `<adag>]]></adag>`, false},
	{"cdata end in value", `<adag name="]]>"/>`, true},
	{"comment dashes", `<adag><!-- a -- b --></adag>`, false},
	{"comment three dashes", `<adag><!-- a ---></adag>`, false},
	{"not a comment", `<!-x><adag/>`, false},
	{"bad cdata", `<adag><![CDAT[x]]></adag>`, false},
	{"unclosed cdata", `<adag><![CDATA[x]]</adag>`, false},
	{"eof in tag", `<adag><job`, false},
	{"eof in content", `<adag><job id="a" name="t">`, false},
	// Attributes.
	{"unquoted", `<adag name=x/>`, false},
	{"no value", `<adag name/>`, false},
	{"lt in value", `<adag name="a<b"/>`, false},
	{"repeated attribute", `<adag name="a" name="b"/>`, true},
	{"attributes without space", `<adag name="a"x='b'/>`, true},
	{"prefixed attribute", `<adag xmlns:name="ns" p:name="v"/>`, true},
	{"bad self-close", `<adag/ >`, false},
	// <argument>.
	{"argument", `<adag><job id="a" name="t"><argument>one</argument><argument>two <![CDATA[<x>&]]> <b>no</b> three<!-- c --></argument></job></adag>`, true},
	{"empty argument", `<adag><job id="a" name="t"><argument>one</argument><argument/></job></adag>`, true},
	// Numbers.
	{"blank runtime", `<adag><job id="a" name="t" runtime=" "/></adag>`, false},
	{"empty numbers", `<adag><job id="a" name="t" runtime="" threads="" memMB=""><uses file="f" link="output" size="" sizeMB=""/></job></adag>`, true},
	{"spaced numbers", "<adag><job id=\"a\" name=\"t\" runtime=\" 5 \" threads=\"\t+2\n\"><uses file=\"f\" link=\"output\" size=\"1e3\"/></job></adag>", true},
	{"hex int", `<adag><job id="a" name="t" memMB="0x10"/></adag>`, false},
	{"float range", `<adag><job id="a" name="t" runtime="1e400"/></adag>`, false},
	{"int range", `<adag><job id="a" name="t" threads="99999999999999999999"/></adag>`, false},
	{"bad size", `<adag><job id="a" name="t"><uses file="f" link="input" sizeMB="big"/></job></adag>`, false},
	{"numbers in skipped element", `<adag><foo runtime="x"><job runtime="y"/></foo></adag>`, true},
	// Structure the document type does not name.
	{"unknown elements", `<adag><meta><job id="hidden" name="x"/>text</meta><job id="a" name="t"><uses file="f" link="input"><uses file="g"/></uses><job id="nested"/></job><child ref="a"><parent ref="p"><parent ref="q"/></parent><x/></child></adag>`, true},
}

// FuzzParse runs the reader and its encoding/xml reference on arbitrary
// bytes: both accept or both refuse, and when they accept, the documents
// are equal — except that the reader may refuse a non-ASCII name or markup
// inside a directive (see the package doc). The driver built on the reader
// must not panic. The first
// five seeds are the target's original corpus; the rest are the parity
// constructs above.
func FuzzParse(f *testing.F) {
	f.Add(sampleDAX)
	f.Add(`<?xml version="1.0"?><adag></adag>`)
	f.Add(`<adag><job id="a" name="t"><uses link="output" file="f"/></job>`)
	f.Add(`<adag><child ref="missing"><parent ref="also-missing"/></child></adag>`)
	f.Add(`not xml at all`)
	for _, c := range constructs {
		f.Add(c.src)
	}
	f.Add(`<adag><jöb/></adag>`)
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstReference(t, src)
		_, _ = NewDriver("fuzz", src).Parse()
	})
}

func checkAgainstReference(t *testing.T, src string) {
	t.Helper()
	got, err := readDoc(src)
	want, refErr := decodeReference(src)
	switch {
	case errors.Is(err, errNonASCIIName), errors.Is(err, errDirectiveMarkup):
	case (err == nil) != (refErr == nil):
		t.Fatalf("reader error %v, reference error %v on %q", err, refErr, src)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("documents differ on %q\nreader    %+v\nreference %+v", src, got, want)
	}
}

func TestConstructsMatchReference(t *testing.T) {
	for _, c := range constructs {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, c.src)
			if _, err := readDoc(c.src); (err == nil) != c.ok {
				t.Fatalf("accepted = %v, want %v (error %v)", err == nil, c.ok, err)
			}
		})
	}
}

// TestNonASCIINamesAreRefused pins the reader's first documented refusal:
// encoding/xml accepts these names, the reader says it does not support
// them.
func TestNonASCIINamesAreRefused(t *testing.T) {
	checkRefused(t, errNonASCIIName,
		`<adag><jöb/></adag>`,
		`<adag nämé="x"/>`,
		`<?pï x?><adag/>`,
	)
}

// TestDirectiveMarkupIsRefused pins the second: a DOCTYPE internal subset,
// or any other '<' outside quotes in a directive, wherever it appears.
func TestDirectiveMarkupIsRefused(t *testing.T) {
	checkRefused(t, errDirectiveMarkup,
		"<!DOCTYPE adag [\n<!ENTITY e \"v\">\n]>\n<adag/>",
		`<!DOCTYPE adag [<!-- > -->]><adag/>`,
		`<adag><!x <y> ><job id="a" name="t"/></adag>`,
	)
}

func checkRefused(t *testing.T, refusal error, srcs ...string) {
	t.Helper()
	for _, src := range srcs {
		if _, err := decodeReference(src); err != nil {
			t.Fatalf("reference refuses %q: %v", src, err)
		}
		if _, err := readDoc(src); !errors.Is(err, refusal) {
			t.Fatalf("reader on %q: %v, want %v", src, err, refusal)
		}
	}
}

// TestArgumentChunksReadInLinearTime: an <argument> broken into many
// pieces by elements it skips is joined without copying what came before
// at each piece.
func TestArgumentChunksReadInLinearTime(t *testing.T) {
	const pieces = 100_000
	src := `<adag><job id="a" name="t"><argument>` + strings.Repeat("a<b/>", pieces) + `</argument></job></adag>`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc, err := readDoc(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Jobs[0].Argument; got != strings.Repeat("a", pieces) {
		t.Fatalf("argument has %d bytes, want %d", len(got), pieces)
	}
	// Joined in place, the pieces cost a few times the argument's length;
	// copied at each piece, they would cost pieces²/2 bytes.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(src)) {
		t.Fatalf("reading a %d-byte document allocated %d bytes", len(src), alloc)
	}
}

// TestReadValues checks what the reader makes of the values the contract
// names: the last repeated attribute and the last <argument> win, text is
// decoded and line ends normalised, nested elements do not count.
func TestReadValues(t *testing.T) {
	doc, err := readDoc("<adag name=\"a\" name=\"x&amp;y\r\nz\"><job id=\"j\" name=\"t\" runtime=\" 2.5 \">" +
		"<argument>first</argument><argument>a<![CDATA[<&>]]>b<i>no</i>c\r\n</argument>" +
		"<uses file=\"f\" link=\"input\" sizeMB=\"\"/></job></adag>")
	if err != nil {
		t.Fatal(err)
	}
	j := doc.Jobs[0]
	if doc.Name != "x&y\nz" || j.Argument != "a<&>bc\n" || j.Runtime != 2.5 || j.Uses[0].SizeMB != 0 {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestParseErrorsNameTheLine: errors keep the frontend's prefix and say
// where the document went wrong.
func TestParseErrorsNameTheLine(t *testing.T) {
	src := "<adag>\n  <job id=\"a\" name=\"t\" runtime=\" \"/>\n</adag>"
	_, err := NewDriver("w", src).Parse()
	if err == nil || !strings.HasPrefix(err.Error(), "dax: parsing w: line 2: ") {
		t.Fatalf("err = %v", err)
	}
}
