package cuneiform

// AST node types. Statements appear at the top level of a program;
// expressions always evaluate to a (possibly not-yet-concrete) list of
// strings.

// Program is a parsed workflow.
type Program struct {
	Stmts []Stmt
}

// Stmt is a top-level statement.
type Stmt interface{ stmt() }

// ParamDecl declares one task parameter or output.
type ParamDecl struct {
	Name      string
	Aggregate bool // <p>: receives / produces a whole list
	Value     bool // ~p: a plain value, not a staged file
}

// TaskAttrs carries the resource profile annotations of a task definition,
// consumed by the simulated substrate in place of running the real tool.
type TaskAttrs struct {
	CPUSeconds float64            // @cpu n: reference core-seconds
	Threads    int                // @threads n
	MemMB      int                // @mem n
	OutSizeMB  map[string]float64 // @size out n: produced size per output
}

// DefTask defines a black-box task: named outputs, named parameters and the
// raw body. The foreign language after `in` is parsed but not kept.
type DefTask struct {
	TaskName string
	Outputs  []ParamDecl
	Params   []ParamDecl
	Body     string
	Attrs    TaskAttrs

	// Set by the parser so the evaluator matches an application's arguments
	// to Params without building lookup tables per application.
	paramIdx map[string]int // parameter name → index in Params
	single   []int          // indices of the non-aggregate Params
}

// DefFun defines a native function (call-by-name macro with named
// arguments); recursion is permitted.
type DefFun struct {
	FunName string
	Params  []string
	Body    Expr
}

// Let binds a name to an expression's value.
type Let struct {
	Ident string
	X     Expr
}

// Target is a top-level query expression; its value is a workflow output.
type Target struct {
	X Expr
}

func (*DefTask) stmt() {}
func (*DefFun) stmt()  {}
func (*Let) stmt()     {}
func (*Target) stmt()  {}

// Expr is an expression node.
type Expr interface{ expr() }

// Str is a string literal (a one-element list).
type Str struct {
	Val string
}

// NilLit is the empty list.
type NilLit struct{}

// Ref reads a let binding or function parameter.
type Ref struct {
	Ident string
	Line  int

	// let is the statement index of the latest let of Ident above this
	// reference, or -1. It is only meaningful in a top-level expression;
	// names in a function body are parameters.
	let int
}

// Cat concatenates the values of its parts.
type Cat struct {
	Parts []Expr
}

// Arg is one named argument of an application.
type Arg struct {
	Param string
	X     Expr
}

// Apply invokes a task or function with named arguments. For task
// applications Proj selects which output parameter the expression evaluates
// to (default: the first declared output).
type Apply struct {
	Callee string
	Args   []Arg
	Proj   string
	Line   int
}

// If evaluates Then when the condition list is non-empty, Else otherwise —
// Cuneiform's Boolean convention.
type If struct {
	Cond, Then, Else Expr
}

func (*Str) expr()    {}
func (*NilLit) expr() {}
func (*Ref) expr()    {}
func (*Cat) expr()    {}
func (*Apply) expr()  {}
func (*If) expr()     {}
