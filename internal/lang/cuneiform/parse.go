package cuneiform

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	lets map[string]int // binding name → index of its latest let statement so far
}

// Parse parses a complete workflow source text.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, lets: map[string]int{}}
	prog := &Program{}
	for !p.at(tokEOF) {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		// Registered after its own expression is parsed, so `let x = x "a";`
		// reads the previous x.
		if l, ok := st.(*Let); ok {
			p.lets[l.Ident] = len(prog.Stmts)
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("cuneiform: empty workflow")
	}
	return prog, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) at(k tokenKind) bool {
	return p.cur().kind == k
}
func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && p.cur().text == kw
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("cuneiform: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errorf("expected %s, found %s", what, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.cur())
	}
	p.advance()
	return nil
}

// ident expects a non-keyword identifier.
func (p *parser) ident(what string) (token, error) {
	if !p.at(tokIdent) || keywords[p.cur().text] {
		return token{}, p.errorf("expected %s, found %s", what, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.atKeyword("deftask"):
		return p.deftask()
	case p.atKeyword("defun"):
		return p.defun()
	case p.atKeyword("let"):
		return p.let()
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, "';' after target expression"); err != nil {
			return nil, err
		}
		return &Target{X: x}, nil
	}
}

// paramDecl parses ID, <ID>, or ~ID.
func (p *parser) paramDecl() (ParamDecl, error) {
	switch {
	case p.at(tokLt):
		p.advance()
		id, err := p.ident("aggregate parameter name")
		if err != nil {
			return ParamDecl{}, err
		}
		if _, err := p.expect(tokGt, "'>'"); err != nil {
			return ParamDecl{}, err
		}
		return ParamDecl{Name: id.text, Aggregate: true}, nil
	case p.at(tokTilde):
		p.advance()
		id, err := p.ident("value parameter name")
		if err != nil {
			return ParamDecl{}, err
		}
		return ParamDecl{Name: id.text, Value: true}, nil
	default:
		id, err := p.ident("parameter name")
		if err != nil {
			return ParamDecl{}, err
		}
		return ParamDecl{Name: id.text}, nil
	}
}

func (p *parser) deftask() (Stmt, error) {
	p.advance() // deftask
	name, err := p.ident("task name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	dt := &DefTask{TaskName: name.text}
	dt.Attrs.OutSizeMB = map[string]float64{}
	// Outputs until ':'.
	for !p.at(tokColon) {
		d, err := p.paramDecl()
		if err != nil {
			return nil, err
		}
		if d.Value {
			return nil, p.errorf("output %q cannot be a value parameter", d.Name)
		}
		dt.Outputs = append(dt.Outputs, d)
	}
	if len(dt.Outputs) == 0 {
		return nil, p.errorf("task %q declares no outputs", dt.TaskName)
	}
	p.advance() // ':'
	for !p.at(tokRParen) {
		d, err := p.paramDecl()
		if err != nil {
			return nil, err
		}
		dt.Params = append(dt.Params, d)
	}
	p.advance() // ')'
	seen := map[string]bool{}
	for _, d := range append(append([]ParamDecl{}, dt.Outputs...), dt.Params...) {
		if seen[d.Name] {
			return nil, p.errorf("task %q declares %q twice", dt.TaskName, d.Name)
		}
		seen[d.Name] = true
	}
	// Attributes.
	for p.at(tokAt) {
		p.advance()
		key, err := p.ident("attribute name")
		if err != nil {
			return nil, err
		}
		switch key.text {
		case "cpu", "threads", "mem":
			num, err := p.expect(tokNumber, "number after @"+key.text)
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(num.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q: %v", num.text, err)
			}
			switch key.text {
			case "cpu":
				dt.Attrs.CPUSeconds = v
			case "threads":
				dt.Attrs.Threads = int(v)
			case "mem":
				dt.Attrs.MemMB = int(v)
			}
		case "size":
			out, err := p.ident("output name after @size")
			if err != nil {
				return nil, err
			}
			if !seen[out.text] {
				return nil, p.errorf("@size names unknown output %q", out.text)
			}
			num, err := p.expect(tokNumber, "number after @size "+out.text)
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(num.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q: %v", num.text, err)
			}
			dt.Attrs.OutSizeMB[out.text] = v
		default:
			return nil, p.errorf("unknown attribute @%s (want @cpu, @threads, @mem, @size)", key.text)
		}
	}
	if err := p.expectKeyword("in"); err != nil {
		return nil, err
	}
	if _, err := p.ident("foreign language name"); err != nil {
		return nil, err
	}
	body, err := p.expect(tokBody, "task body '*{ ... }*'")
	if err != nil {
		return nil, err
	}
	dt.Body = body.text
	dt.paramIdx = make(map[string]int, len(dt.Params))
	for i, d := range dt.Params {
		dt.paramIdx[d.Name] = i
		if !d.Aggregate {
			dt.single = append(dt.single, i)
		}
	}
	return dt, nil
}

func (p *parser) defun() (Stmt, error) {
	p.advance() // defun
	name, err := p.ident("function name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	df := &DefFun{FunName: name.text}
	seen := map[string]bool{}
	for !p.at(tokRParen) {
		id, err := p.ident("function parameter")
		if err != nil {
			return nil, err
		}
		if seen[id.text] {
			return nil, p.errorf("function %q declares %q twice", df.FunName, id.text)
		}
		seen[id.text] = true
		df.Params = append(df.Params, id.text)
	}
	p.advance() // ')'
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	df.Body = body
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return df, nil
}

func (p *parser) let() (Stmt, error) {
	p.advance() // let
	name, err := p.ident("binding name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEq, "'='"); err != nil {
		return nil, err
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return nil, err
	}
	return &Let{Ident: name.text, X: x}, nil
}

// expr parses one or more atoms; juxtaposition concatenates lists.
func (p *parser) expr() (Expr, error) {
	first, err := p.atom()
	if err != nil {
		return nil, err
	}
	parts := []Expr{first}
	for p.startsAtom() {
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		parts = append(parts, a)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &Cat{Parts: parts}, nil
}

// startsAtom reports whether the current token can begin an atom.
func (p *parser) startsAtom() bool {
	switch p.cur().kind {
	case tokString, tokLParen:
		return true
	case tokIdent:
		t := p.cur().text
		return !keywords[t] || t == "nil" || t == "if"
	default:
		return false
	}
}

func (p *parser) atom() (Expr, error) {
	switch {
	case p.at(tokString):
		return &Str{Val: p.advance().text}, nil
	case p.atKeyword("nil"):
		p.advance()
		return &NilLit{}, nil
	case p.atKeyword("if"):
		return p.cond()
	case p.at(tokLParen):
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return x, nil
	case p.at(tokIdent) && !keywords[p.cur().text]:
		id := p.advance()
		if !p.at(tokLParen) {
			let, ok := p.lets[id.text]
			if !ok {
				let = -1
			}
			return &Ref{Ident: id.text, Line: id.line, let: let}, nil
		}
		p.advance() // '('
		ap := &Apply{Callee: id.text, Line: id.line}
		seen := map[string]bool{}
		for !p.at(tokRParen) {
			param, err := p.ident("argument name")
			if err != nil {
				return nil, err
			}
			if seen[param.text] {
				return nil, p.errorf("argument %q given twice", param.text)
			}
			seen[param.text] = true
			if _, err := p.expect(tokColon, "':' after argument name"); err != nil {
				return nil, err
			}
			x, err := p.argExpr()
			if err != nil {
				return nil, err
			}
			ap.Args = append(ap.Args, Arg{Param: param.text, X: x})
		}
		p.advance() // ')'
		if p.at(tokDot) {
			p.advance()
			proj, err := p.ident("output name after '.'")
			if err != nil {
				return nil, err
			}
			ap.Proj = proj.text
		}
		return ap, nil
	default:
		return nil, p.errorf("expected an expression, found %s", p.cur())
	}
}

// argExpr parses an argument value: one or more atoms, but an identifier
// followed by ':' belongs to the next argument, so lookahead stops there.
func (p *parser) argExpr() (Expr, error) {
	var parts []Expr
	for {
		if !p.startsAtom() {
			break
		}
		// Stop if this identifier introduces the next named argument.
		if p.at(tokIdent) && !keywords[p.cur().text] &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokColon {
			break
		}
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		parts = append(parts, a)
	}
	switch len(parts) {
	case 0:
		return nil, p.errorf("expected an argument value, found %s", p.cur())
	case 1:
		return parts[0], nil
	default:
		return &Cat{Parts: parts}, nil
	}
}

func (p *parser) cond() (Expr, error) {
	p.advance() // if
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	then, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return &If{Cond: cond, Then: then, Else: els}, nil
}
