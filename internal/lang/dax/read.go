package dax

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The reader's two refusals of documents encoding/xml accepts (see the
// package doc).
var (
	errNonASCIIName    = errors.New("names with non-ASCII characters are not supported")
	errDirectiveMarkup = errors.New("markup inside a <!DOCTYPE> or other <!directive> (an internal subset) is not supported")
)

var errEOF = errors.New("unexpected EOF")

// scanner reads a DAX document in one pass over its source. Names and
// values are slices of src; a value is copied only when an entity or a
// carriage return rewrites it, or when a task keeps it (see job).
type scanner struct {
	src   string
	pos   int
	name  string   // the last start or end tag's name, prefix included
	local string   // the last start tag's name without its prefix
	empty bool     // the last start tag closed itself
	attrs []attr   // the last start tag's attributes, in document order
	text  string   // the last character data, when next was asked to keep it
	open  []string // names of the elements content is inside
	buf   []byte   // scratch for rewritten values
}

type attr struct{ local, value string }

// What next read.
const (
	itemEOF = iota
	itemStart
	itemEnd
	itemText
)

// readDoc reads the DAX document src. Like encoding/xml's Decode, it stops
// at the root's end tag and does not look at what follows.
func readDoc(src string) (*xmlADAG, error) {
	s := &scanner{src: src}
	doc := &xmlADAG{}
	if err := s.document(doc); err != nil {
		return nil, fmt.Errorf("line %d: %w", 1+strings.Count(src[:s.pos], "\n"), err)
	}
	return doc, nil
}

// Sniff reports whether src looks like a DAX document: whether, after an
// optional byte-order mark, its first element is <adag>, prefixed or not.
// Whitespace, the XML declaration, comments, processing instructions and a
// DOCTYPE before it are skipped unchecked: Sniff recognises the language
// and leaves judging the document to the reader.
func Sniff(src string) bool {
	rest := strings.TrimPrefix(src, "\uFEFF")
	for {
		rest = strings.TrimLeft(rest, " \t\r\n")
		end := ">"
		switch {
		case strings.HasPrefix(rest, "<?"):
			end = "?>"
		case strings.HasPrefix(rest, "<!--"):
			end = "-->"
		case strings.HasPrefix(rest, "<!"):
			// A DOCTYPE with an internal subset ends after the subset's ']'.
			if i := strings.IndexAny(rest, "[>"); i >= 0 && rest[i] == '[' {
				if j := strings.IndexByte(rest[i:], ']'); j >= 0 {
					rest = rest[i+j:]
				}
			}
		default:
			s := &scanner{src: rest}
			if !s.eat('<') {
				return false
			}
			_, local, err := s.nsName()
			return err == nil && local == "adag"
		}
		i := strings.Index(rest, end)
		if i < 0 {
			return false
		}
		rest = rest[i+len(end):]
	}
}

// document skips whatever precedes the root — text, comments, processing
// instructions, directives — and reads the <adag> element.
func (s *scanner) document(doc *xmlADAG) error {
	for {
		it, err := s.next(false)
		switch {
		case err != nil:
			return err
		case it == itemEOF:
			return errors.New("no <adag> element")
		case it == itemEnd:
			return fmt.Errorf("unexpected end element </%s>", s.name)
		case it == itemStart:
			if s.local != "adag" {
				return fmt.Errorf("expected element <adag> but have <%s>", s.name)
			}
			for _, a := range s.attrs {
				if a.local == "name" {
					doc.Name = a.value
				}
			}
			_, err := s.content(false, func(local string) (bool, error) {
				switch local {
				case "job":
					doc.Jobs = append(doc.Jobs, xmlJob{})
					return true, s.job(&doc.Jobs[len(doc.Jobs)-1])
				case "child":
					doc.Childs = append(doc.Childs, xmlChild{})
					return true, s.child(&doc.Childs[len(doc.Childs)-1])
				}
				return false, nil
			})
			return err
		}
	}
}

// job reads a <job>. Its id and name, like a <uses> file name, end up in
// the task and its provenance, which outlive the parse; they are copied, so
// that a kept task does not keep the whole source alive. The other values
// are read while the tasks are built and then dropped.
func (s *scanner) job(j *xmlJob) error {
	for _, a := range s.attrs {
		var err error
		switch a.local {
		case "id":
			j.ID = strings.Clone(a.value)
		case "name":
			j.Name = strings.Clone(a.value)
		case "namespace":
			j.Nspace = a.value
		case "runtime":
			j.Runtime, err = parseFloat(a)
		case "threads":
			j.Threads, err = parseInt(a)
		case "memMB":
			j.MemMB, err = parseInt(a)
		}
		if err != nil {
			return err
		}
	}
	_, err := s.content(false, func(local string) (bool, error) {
		switch local {
		case "argument":
			// The last <argument> wins; its nested elements do not count.
			var err error
			j.Argument, err = s.content(true, nil)
			return true, err
		case "uses":
			if j.Uses == nil {
				j.Uses = make([]xmlUses, 0, 4) // most jobs use a few files
			}
			j.Uses = append(j.Uses, xmlUses{})
			return true, s.uses(&j.Uses[len(j.Uses)-1])
		}
		return false, nil
	})
	return err
}

func (s *scanner) uses(u *xmlUses) error {
	for _, a := range s.attrs {
		var err error
		switch a.local {
		case "file":
			u.File = strings.Clone(a.value)
		case "link":
			u.Link = a.value
		case "size":
			u.Size, err = parseFloat(a)
		case "sizeMB":
			u.SizeMB, err = parseFloat(a)
		}
		if err != nil {
			return err
		}
	}
	_, err := s.content(false, nil)
	return err
}

func (s *scanner) child(c *xmlChild) error {
	for _, a := range s.attrs {
		if a.local == "ref" {
			c.Ref = a.value
		}
	}
	_, err := s.content(false, func(local string) (bool, error) {
		if local != "parent" {
			return false, nil
		}
		c.Parents = append(c.Parents, xmlParent{})
		p := &c.Parents[len(c.Parents)-1]
		for _, a := range s.attrs {
			if a.local == "ref" {
				p.Ref = a.value
			}
		}
		_, err := s.content(false, nil)
		return true, err
	})
	return err
}

// Numeric attributes read as encoding/xml reads them: empty is zero,
// anything else is parsed with surrounding white space trimmed.
func parseFloat(a attr) (float64, error) {
	if a.value == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(a.value), 64)
	if err != nil {
		return 0, fmt.Errorf("attribute %s: %w", a.local, err)
	}
	return f, nil
}

func parseInt(a attr) (int, error) {
	if a.value == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(a.value), 10, 0)
	if err != nil {
		return 0, fmt.Errorf("attribute %s: %w", a.local, err)
	}
	return int(n), nil
}

// content reads the content of the element whose start tag was just read,
// through its end tag, checking that every end tag inside matches. A child
// element goes to child, which reports whether it consumed the element;
// the rest of the subtree is skipped, without recursion however deep it
// nests. With keep, the element's own character data is returned, not that
// of its descendants.
func (s *scanner) content(keep bool, child func(local string) (bool, error)) (string, error) {
	if s.empty {
		return "", nil
	}
	base := len(s.open)
	s.open = append(s.open, s.name)
	var text string
	var more []byte // chunks after the first: text += chunk would copy text each time
	for len(s.open) > base {
		own := len(s.open) == base+1 // not inside a skipped descendant
		it, err := s.next(keep && own)
		if err != nil {
			return "", err
		}
		switch it {
		case itemEOF:
			return "", errEOF
		case itemText:
			if text == "" {
				text = s.text // usually the only chunk, kept a slice of src
			} else {
				more = append(more, s.text...)
			}
		case itemEnd:
			if top := s.open[len(s.open)-1]; s.name != top {
				return "", fmt.Errorf("element <%s> closed by </%s>", top, s.name)
			}
			s.open = s.open[:len(s.open)-1]
		case itemStart:
			if own && child != nil {
				took, err := child(s.local)
				if err != nil {
					return "", err
				}
				if took {
					continue
				}
			}
			if !s.empty {
				s.open = append(s.open, s.name)
			}
		}
	}
	return text + string(more), nil
}

// next reads one item: character data (CDATA sections included), a start
// tag or an end tag. Comments, processing instructions and directives are
// consumed on the way.
func (s *scanner) next(keep bool) (int, error) {
	for s.pos < len(s.src) {
		rest := s.src[s.pos:]
		if rest[0] != '<' {
			end := s.pos + len(rest)
			if i := strings.IndexByte(rest, '<'); i >= 0 {
				end = s.pos + i
			}
			return itemText, s.chars(end, true, true, keep)
		}
		if strings.HasPrefix(rest, "<![") {
			if !strings.HasPrefix(rest, "<![CDATA[") {
				return 0, errors.New("invalid <![ sequence")
			}
			s.pos += len("<![CDATA[")
			i := strings.Index(s.src[s.pos:], "]]>")
			if i < 0 {
				return 0, errors.New("unexpected EOF in CDATA section")
			}
			if err := s.chars(s.pos+i, false, false, keep); err != nil {
				return 0, err
			}
			s.pos += len("]]>")
			return itemText, nil
		}
		if ok, err := s.misc(); err != nil {
			return 0, err
		} else if ok {
			continue
		}
		s.pos++
		if s.eat('/') {
			return itemEnd, s.endTag()
		}
		return itemStart, s.startTag()
	}
	return itemEOF, nil
}

// chars checks the character data from s.pos to end as encoding/xml checks
// it — valid UTF-8 in the XML Char range, with refs only the five
// predefined entities and numeric character references, with cdEnd no
// "]]>" — and moves s.pos to end. With keep it sets s.text to the value:
// references expanded, "\r\n" and a lone '\r' turned into '\n'.
func (s *scanner) chars(end int, refs, cdEnd, keep bool) error {
	start, from := s.pos, s.pos // src[from:i] is not yet in buf
	s.buf = s.buf[:0]
	for i := start; i < end; {
		c := s.src[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != ']' {
			i++
			continue
		}
		n, r := 1, rune(-1) // r ≥ 0: the bytes read as r
		switch {
		case c == '&' && refs:
			var err error
			if r, n, err = reference(s.src[i:end]); err != nil {
				s.pos = i
				return err
			}
		case c == ']':
			if cdEnd && strings.HasPrefix(s.src[i:end], "]]>") {
				s.pos = i
				return errors.New("unescaped ]]> not in CDATA section")
			}
		case c == '\r':
			if i+1 < end && s.src[i+1] == '\n' {
				n = 2
			}
			r = '\n'
		case c == '\t' || c == '\n' || c == '&':
		case c < 0x20:
			s.pos = i
			return fmt.Errorf("illegal character code %U", c)
		default:
			var d rune
			if d, n = utf8.DecodeRuneInString(s.src[i:end]); d == utf8.RuneError && n == 1 {
				s.pos = i
				return errors.New("invalid UTF-8")
			} else if !inCharRange(d) {
				s.pos = i
				return fmt.Errorf("illegal character code %U", d)
			}
		}
		if r >= 0 && keep {
			s.buf = utf8.AppendRune(append(s.buf, s.src[from:i]...), r)
			from = i + n
		}
		i += n
	}
	s.pos = end
	switch {
	case !keep:
		s.text = ""
	case from == start:
		s.text = s.src[start:end]
	default:
		s.text = string(append(s.buf, s.src[from:end]...))
	}
	return nil
}

// entities are XML's predefined entities, the only ones a strict
// encoding/xml decoder knows.
var entities = [...]struct {
	name string
	r    rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// reference decodes the entity or character reference that src starts
// with and returns the character and the reference's length.
func reference(src string) (rune, int, error) {
	for _, e := range entities {
		if strings.HasPrefix(src, e.name) {
			return e.r, len(e.name), nil
		}
	}
	if strings.HasPrefix(src, "&#") {
		i, base := 2, 10
		if strings.HasPrefix(src[i:], "x") {
			i, base = i+1, 16
		}
		digits := i
		for i < len(src) && ('0' <= src[i] && src[i] <= '9' ||
			base == 16 && ('a' <= src[i] && src[i] <= 'f' || 'A' <= src[i] && src[i] <= 'F')) {
			i++
		}
		if i < len(src) && src[i] == ';' {
			n, err := strconv.ParseUint(src[digits:i], base, 64)
			if err == nil && n <= utf8.MaxRune {
				r := rune(n)
				if !utf8.ValidRune(r) {
					r = utf8.RuneError // a surrogate, as string(rune(n)) makes it
				}
				if !inCharRange(r) {
					return 0, 0, fmt.Errorf("illegal character code %U", r)
				}
				return r, i + 1, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("invalid character entity %.12q", src)
}

// inCharRange reports whether r is in the Char production of XML 1.0 §2.2.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// misc consumes the processing instruction, comment or directive at s.pos
// and reports whether there was one.
func (s *scanner) misc() (bool, error) {
	rest := s.src[s.pos:]
	switch {
	case strings.HasPrefix(rest, "<?"):
		s.pos += len("<?")
		return true, s.procInst()
	case strings.HasPrefix(rest, "<!-"):
		if !strings.HasPrefix(rest, "<!--") {
			return true, errors.New("invalid sequence <!- not part of <!--")
		}
		s.pos += len("<!--")
		i := strings.Index(s.src[s.pos:], "--")
		if i < 0 || s.pos+i+2 >= len(s.src) {
			return true, errEOF
		}
		s.pos += i + 2
		if !s.eat('>') {
			return true, errors.New(`invalid sequence "--" not allowed in comments`)
		}
		return true, nil
	case strings.HasPrefix(rest, "<!") && !strings.HasPrefix(rest, "<!["):
		s.pos += len("<!")
		return true, s.directive()
	}
	return false, nil
}

// procInst consumes a processing instruction after its "<?". The XML
// declaration, wherever it appears, must declare version 1.0 and UTF-8 if
// it declares them.
func (s *scanner) procInst() error {
	target, err := s.readName()
	if err != nil {
		return err
	}
	if target == "" {
		return errors.New("expected target name after <?")
	}
	s.space()
	i := strings.Index(s.src[s.pos:], "?>")
	if i < 0 {
		return errEOF
	}
	inst := s.src[s.pos : s.pos+i]
	s.pos += i + len("?>")
	if target == "xml" {
		if v := procInstParam("version=", inst); v != "" && v != "1.0" {
			return fmt.Errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if e := procInstParam("encoding=", inst); e != "" && !strings.EqualFold(e, "utf-8") {
			return fmt.Errorf("unsupported encoding %q", e)
		}
	}
	return nil
}

// procInstParam returns the quoted value after key in a processing
// instruction, found the way encoding/xml finds it: at the first key
// followed by a quote, up to the next such quote.
func procInstParam(key, inst string) string {
	for {
		k := strings.Index(inst, key)
		if k < 0 || k+len(key) >= len(inst) {
			return ""
		}
		quote := inst[k+len(key)]
		inst = inst[k+len(key)+1:]
		if quote == '"' || quote == '\'' {
			if j := strings.IndexByte(inst, quote); j >= 0 {
				return inst[:j]
			}
			return ""
		}
	}
}

// directive consumes a <!DOCTYPE …> or other directive after its "<!". It
// ends at the first '>' outside quotes, where encoding/xml ends one that
// has no '<' inside; a '<' outside quotes, which would nest markup, is
// refused. Like encoding/xml, it takes the byte after "<!" as it is.
func (s *scanner) directive() error {
	var quote byte
	for i := s.pos + 1; i < len(s.src); i++ {
		switch b := s.src[i]; {
		case quote != 0:
			if b == quote {
				quote = 0
			}
		case b == '\'' || b == '"':
			quote = b
		case b == '<':
			s.pos = i
			return errDirectiveMarkup
		case b == '>':
			s.pos = i + 1
			return nil
		}
	}
	s.pos = len(s.src)
	return errEOF
}

// startTag reads a start tag after its '<' into name, local, empty and
// attrs.
func (s *scanner) startTag() error {
	name, local, err := s.nsName()
	if err != nil {
		return err
	}
	if name == "" {
		return errors.New("expected element name after <")
	}
	s.name, s.local, s.empty, s.attrs = name, local, false, s.attrs[:0]
	for {
		s.space()
		switch {
		case s.eat('>'):
			return nil
		case s.eat('/'):
			if !s.eat('>') {
				return errors.New("expected /> in element")
			}
			s.empty = true
			return nil
		}
		name, local, err := s.nsName()
		if err != nil {
			return err
		}
		if name == "" {
			return errors.New("expected attribute name in element")
		}
		s.space()
		if !s.eat('=') {
			return errors.New("attribute name without = in element")
		}
		s.space()
		if s.pos >= len(s.src) || s.src[s.pos] != '"' && s.src[s.pos] != '\'' {
			return errors.New("unquoted or missing attribute value in element")
		}
		quote := s.src[s.pos]
		s.pos++
		end := strings.IndexByte(s.src[s.pos:], quote)
		if end < 0 {
			return errEOF
		}
		end += s.pos
		if i := strings.IndexByte(s.src[s.pos:end], '<'); i >= 0 {
			s.pos += i
			return errors.New("unescaped < inside quoted string")
		}
		if err := s.chars(end, true, false, true); err != nil {
			return err
		}
		s.pos++ // the closing quote
		s.attrs = append(s.attrs, attr{local, s.text})
	}
}

// endTag reads an end tag after its "</" into name.
func (s *scanner) endTag() error {
	name, _, err := s.nsName()
	if err != nil {
		return err
	}
	if name == "" {
		return errors.New("expected element name after </")
	}
	s.name = name
	s.space()
	if !s.eat('>') {
		return fmt.Errorf("invalid characters between </%s and >", name)
	}
	return nil
}

// nameByte marks the bytes encoding/xml reads as part of a name: ASCII
// letters, digits, '_', ':', '.', '-' and every non-ASCII byte.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// readName reads a name at s.pos: the longest run of name bytes. "" means
// no name starts here.
func (s *scanner) readName() (string, error) {
	i, high := s.pos, byte(0)
	for i < len(s.src) && nameByte[s.src[i]] {
		high |= s.src[i]
		i++
	}
	name := s.src[s.pos:i]
	s.pos = i
	switch {
	case name == "":
	case high >= utf8.RuneSelf:
		return "", fmt.Errorf("name %q: %w", name, errNonASCIIName)
	case name[0] == '-' || name[0] == '.' || '0' <= name[0] && name[0] <= '9':
		return "", fmt.Errorf("invalid XML name: %s", name)
	}
	return name, nil
}

// nsName reads an element or attribute name, which has at most one colon,
// and returns it with and without its prefix, split as encoding/xml splits
// it: "p:adag" → "adag", while ":adag" and "adag:" have no prefix.
func (s *scanner) nsName() (name, local string, err error) {
	if name, err = s.readName(); err != nil {
		return "", "", err
	}
	i := strings.IndexByte(name, ':')
	switch {
	case i < 0:
		return name, name, nil
	case strings.IndexByte(name[i+1:], ':') >= 0:
		return "", "", fmt.Errorf("invalid name %s", name)
	case i > 0 && i < len(name)-1:
		return name, name[i+1:], nil
	}
	return name, name, nil
}

func (s *scanner) space() {
	i := s.pos
	for i < len(s.src) && (s.src[i] == ' ' || s.src[i] == '\n' || s.src[i] == '\t' || s.src[i] == '\r') {
		i++
	}
	s.pos = i
}

func (s *scanner) eat(c byte) bool {
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}
