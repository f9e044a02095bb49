// Package gen plays the role of the paper's code generator (§2.5, §3): it
// parses a Go file, finds structs marked //jnvm:persistent, and emits the
// persistent layout, typed proxy code — getters, setters, per-field flush
// methods, transactional accessors — and the core.Class descriptor that
// the ASM-based tool emits in Java. cmd/jnvmgen fronts it.
package gen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
)

// Kind classifies a persistent field.
type Kind int

// Field kinds.
const (
	KindBool Kind = iota
	KindInt8
	KindInt16
	KindInt32
	KindInt64
	KindUint8
	KindUint16
	KindUint32
	KindUint64
	KindFloat64
	KindRef     // a persistent reference (tag jnvm:"ref")
	KindByteArr // [N]byte, stored inline
)

func (k Kind) size() uint64 {
	switch k {
	case KindBool, KindInt8, KindUint8:
		return 1
	case KindInt16, KindUint16:
		return 2
	case KindInt32, KindUint32:
		return 4
	default:
		return 8
	}
}

// SrcOptions configures the source generator.
type SrcOptions struct {
	// Module is the module path used in generated imports
	// (<Module>/internal/core, <Module>/internal/fa).
	Module string
	// ClassPrefix prefixes the persistent class names; defaults to the
	// source package name.
	ClassPrefix string
}

// Marker is the annotation that selects structs for transformation, the
// analogue of the paper's @Persistent (§2.5).
const Marker = "jnvm:persistent"

type srcField struct {
	name   string
	kind   Kind
	size   uint64 // byte arrays
	offset uint64
}

type srcStruct struct {
	name   string
	fields []srcField
	size   uint64
}

// GenerateSource parses a Go source file and emits the proxy code for
// every struct whose doc comment contains the jnvm:persistent marker. It
// returns nil output when the file declares no persistent structs.
func GenerateSource(filename string, src []byte, opts SrcOptions) ([]byte, error) {
	if opts.Module == "" {
		opts.Module = "repro"
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("gen: parse %s: %w", filename, err)
	}
	prefix := opts.ClassPrefix
	if prefix == "" {
		prefix = f.Name.Name
	}

	var structs []srcStruct
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		marked := hasMarker(gd.Doc)
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if !marked && !hasMarker(ts.Doc) && !hasMarker(ts.Comment) {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return nil, fmt.Errorf("gen: %s: %s is marked %s but is not a struct", filename, ts.Name.Name, Marker)
			}
			s, err := analyzeStruct(ts.Name.Name, st)
			if err != nil {
				return nil, fmt.Errorf("gen: %s: %w", filename, err)
			}
			structs = append(structs, s)
		}
	}
	if len(structs) == 0 {
		return nil, nil
	}

	needsMath := false
	for _, s := range structs {
		for _, f := range s.fields {
			if f.kind == KindFloat64 {
				needsMath = true
			}
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by jnvmgen from %s; DO NOT EDIT.\n\n", filename)
	fmt.Fprintf(&b, "package %s\n\n", f.Name.Name)
	fmt.Fprintf(&b, "import (\n")
	if needsMath {
		fmt.Fprintf(&b, "\t\"math\"\n\n")
	}
	fmt.Fprintf(&b, "\t%q\n\t%q\n)\n\n", opts.Module+"/internal/core", opts.Module+"/internal/fa")
	for _, s := range structs {
		emitStruct(&b, s, prefix)
	}
	out, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("gen: generated code does not format: %w\n%s", err, b.String())
	}
	return out, nil
}

func hasMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, Marker) {
			return true
		}
	}
	return false
}

func analyzeStruct(name string, st *ast.StructType) (srcStruct, error) {
	s := srcStruct{name: name}
	off := uint64(0)
	for _, f := range st.Fields.List {
		tag := fieldTag(f)
		if tag == "transient" {
			continue
		}
		exported := false
		for _, nameIdent := range f.Names {
			if nameIdent.IsExported() {
				exported = true
			}
		}
		if !exported && tag == "" {
			continue // unexported, untagged: volatile by default
		}
		kind, size, err := fieldKind(f.Type, tag)
		if err != nil {
			return s, fmt.Errorf("struct %s: %w", name, err)
		}
		for _, nameIdent := range f.Names {
			if !nameIdent.IsExported() {
				return s, fmt.Errorf("struct %s: persistent field %s must be exported (or tagged jnvm:\"transient\")", name, nameIdent.Name)
			}
			align := kind.size()
			fsize := kind.size()
			if kind == KindByteArr {
				align, fsize = 1, size
			}
			off = (off + align - 1) &^ (align - 1)
			s.fields = append(s.fields, srcField{name: nameIdent.Name, kind: kind, size: fsize, offset: off})
			off += fsize
		}
	}
	if off == 0 {
		return s, fmt.Errorf("struct %s has no persistent fields", name)
	}
	s.size = off
	return s, nil
}

func fieldTag(f *ast.Field) string {
	if f.Tag == nil {
		return ""
	}
	raw, err := strconv.Unquote(f.Tag.Value)
	if err != nil {
		return ""
	}
	// minimal struct-tag scan for the jnvm key
	for raw != "" {
		i := strings.IndexByte(raw, ':')
		if i < 0 {
			break
		}
		key := strings.TrimSpace(raw[:i])
		rest := raw[i+1:]
		if len(rest) == 0 || rest[0] != '"' {
			break
		}
		j := strings.IndexByte(rest[1:], '"')
		if j < 0 {
			break
		}
		val := rest[1 : 1+j]
		if key == "jnvm" {
			return val
		}
		raw = strings.TrimSpace(rest[j+2:])
	}
	return ""
}

func fieldKind(expr ast.Expr, tag string) (Kind, uint64, error) {
	if tag == "ref" {
		// Recovery traces the word as a reference, so it must hold one.
		if !isRefWord(expr) {
			return 0, 0, fmt.Errorf("ref field of type %s must be uint64, core.Ref or Ref", exprString(expr))
		}
		return KindRef, 8, nil
	}
	switch t := expr.(type) {
	case *ast.Ident:
		switch t.Name {
		case "bool":
			return KindBool, 1, nil
		case "int8":
			return KindInt8, 1, nil
		case "int16":
			return KindInt16, 2, nil
		case "int32", "rune":
			return KindInt32, 4, nil
		case "int64", "int":
			return KindInt64, 8, nil
		case "byte", "uint8":
			return KindUint8, 1, nil
		case "uint16":
			return KindUint16, 2, nil
		case "uint32":
			return KindUint32, 4, nil
		case "uint64", "uint", "uintptr":
			return KindUint64, 8, nil
		case "float64":
			return KindFloat64, 8, nil
		case "Ref":
			return KindRef, 8, nil
		case "string":
			return 0, 0, fmt.Errorf("string fields are not persistable directly; store a pdt.PString behind a jnvm:\"ref\" field")
		}
	case *ast.SelectorExpr:
		if t.Sel.Name == "Ref" {
			return KindRef, 8, nil
		}
	case *ast.ArrayType:
		if id, ok := t.Elt.(*ast.Ident); ok && (id.Name == "byte" || id.Name == "uint8") {
			if lit, ok := t.Len.(*ast.BasicLit); ok && lit.Kind == token.INT {
				n, err := strconv.ParseUint(lit.Value, 0, 32)
				if err == nil && n > 0 {
					return KindByteArr, n, nil
				}
			}
			return 0, 0, fmt.Errorf("byte-array fields need a literal integer length")
		}
	}
	return 0, 0, fmt.Errorf("unsupported persistent field type %s", exprString(expr))
}

// isRefWord reports whether a jnvm:"ref" field's type holds a reference:
// uint64, core.Ref or Ref.
func isRefWord(expr ast.Expr) bool {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name == "uint64" || t.Name == "Ref"
	case *ast.SelectorExpr:
		pkg, ok := t.X.(*ast.Ident)
		return ok && pkg.Name == "core" && t.Sel.Name == "Ref"
	}
	return false
}

func exprString(e ast.Expr) string {
	var b bytes.Buffer
	format.Node(&b, token.NewFileSet(), e)
	return b.String()
}

// kindGo maps a field kind to (Go type, object reader, object writer, tx
// reader, tx writer, byte width).
func kindGo(k Kind) (goType, rd, wr, txRd, txWr string, width uint64) {
	switch k {
	case KindBool:
		return "bool", "", "", "", "", 1 // special-cased
	case KindInt8:
		return "int8", "ReadUint8", "WriteUint8", "ReadUint8", "WriteUint8", 1
	case KindInt16:
		return "int16", "ReadUint16", "WriteUint16", "ReadUint16", "WriteUint16", 2
	case KindInt32:
		return "int32", "ReadUint32", "WriteUint32", "ReadUint32", "WriteUint32", 4
	case KindInt64:
		return "int64", "ReadInt64", "WriteInt64", "ReadInt64", "WriteInt64", 8
	case KindUint8:
		return "byte", "ReadUint8", "WriteUint8", "ReadUint8", "WriteUint8", 1
	case KindUint16:
		return "uint16", "ReadUint16", "WriteUint16", "ReadUint16", "WriteUint16", 2
	case KindUint32:
		return "uint32", "ReadUint32", "WriteUint32", "ReadUint32", "WriteUint32", 4
	case KindUint64:
		return "uint64", "ReadUint64", "WriteUint64", "ReadUint64", "WriteUint64", 8
	case KindFloat64:
		return "float64", "", "", "", "", 8 // special-cased
	case KindRef:
		return "core.Ref", "ReadRef", "WriteRef", "ReadRef", "WriteRef", 8
	}
	return "", "", "", "", "", 0
}

func emitStruct(b *bytes.Buffer, s srcStruct, prefix string) {
	p := s.name + "P"
	className := prefix + "." + s.name

	fmt.Fprintf(b, "// %s is the generated persistent proxy for %s (Figure 4 of the paper).\n", p, s.name)
	fmt.Fprintf(b, "type %s struct{ *core.Object }\n\n", p)
	fmt.Fprintf(b, "// %sSize is the persistent data-structure size of %s in bytes.\n", p, s.name)
	fmt.Fprintf(b, "const %sSize = %d\n\n", p, s.size)
	fmt.Fprintf(b, "// Persistent field offsets of %s.\nconst (\n", s.name)
	for _, f := range s.fields {
		fmt.Fprintf(b, "\t%sOff%s = %d\n", p, f.name, f.offset)
	}
	fmt.Fprintf(b, ")\n\n")

	// Class descriptor.
	fmt.Fprintf(b, "// %sClass returns the class descriptor to register with the heap.\n", p)
	fmt.Fprintf(b, "func %sClass() *core.Class {\n\treturn &core.Class{\n\t\tName: %q,\n", p, className)
	fmt.Fprintf(b, "\t\tFactory: func(o *core.Object) core.PObject { return &%s{Object: o} },\n", p)
	var refOffs []string
	for _, f := range s.fields {
		if f.kind == KindRef {
			refOffs = append(refOffs, fmt.Sprintf("%sOff%s", p, f.name))
		}
	}
	if len(refOffs) > 0 {
		fmt.Fprintf(b, "\t\tRefs: func(*core.Object) []uint64 { return []uint64{%s} },\n", strings.Join(refOffs, ", "))
	}
	fmt.Fprintf(b, "\t}\n}\n\n")

	// Constructors.
	fmt.Fprintf(b, "// New%s allocates an invalid %s; set fields, flush (PWB) and\n// Validate before publishing, or use New%sTx inside a failure-atomic block.\n", p, s.name, p)
	fmt.Fprintf(b, "func New%s(h *core.Heap) (*%s, error) {\n", p, p)
	fmt.Fprintf(b, "\tpo, err := h.Alloc(h.MustClass(%q), %sSize)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\treturn po.(*%s), nil\n}\n\n", className, p, p)
	fmt.Fprintf(b, "// New%sTx allocates a %s inside a failure-atomic block; it becomes\n// valid if and only if the block commits.\n", p, s.name)
	fmt.Fprintf(b, "func New%sTx(tx *fa.Tx) (*%s, error) {\n", p, p)
	fmt.Fprintf(b, "\tpo, err := tx.Alloc(tx.Heap().MustClass(%q), %sSize)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\treturn po.(*%s), nil\n}\n\n", className, p, p)

	for _, f := range s.fields {
		emitField(b, p, f)
	}
}

func emitField(b *bytes.Buffer, p string, f srcField) {
	off := fmt.Sprintf("%sOff%s", p, f.name)
	switch f.kind {
	case KindByteArr:
		fmt.Fprintf(b, "// %s reads the %s field.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) %s() []byte { return p.ReadBytes(%s, %d) }\n\n", p, f.name, off, f.size)
		fmt.Fprintf(b, "// Set%s stores the %s field (must be exactly %d bytes).\n", f.name, f.name, f.size)
		fmt.Fprintf(b, "func (p *%s) Set%s(v []byte) {\n\tif len(v) != %d {\n\t\tpanic(\"%s: Set%s needs %d bytes\")\n\t}\n\tp.WriteBytes(%s, v)\n}\n\n", p, f.name, f.size, p, f.name, f.size, off)
		fmt.Fprintf(b, "// PWB%s flushes the cache lines of %s.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) PWB%s() { p.PWBField(%s, %d) }\n\n", p, f.name, off, f.size)
		fmt.Fprintf(b, "// %sTx reads %s through a failure-atomic block.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) %sTx(tx *fa.Tx) ([]byte, error) { return tx.ReadBytes(p.Object, %s, %d) }\n\n", p, f.name, off, f.size)
		fmt.Fprintf(b, "// Set%sTx stores %s through a failure-atomic block.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) Set%sTx(tx *fa.Tx, v []byte) error {\n\tif len(v) != %d {\n\t\tpanic(\"%s: Set%s needs %d bytes\")\n\t}\n\treturn tx.WriteBytes(p.Object, %s, v)\n}\n\n", p, f.name, f.size, p, f.name, f.size, off)
		return
	case KindBool:
		fmt.Fprintf(b, "// %s reads the %s field.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) %s() bool { return p.ReadUint8(%s) != 0 }\n\n", p, f.name, off)
		fmt.Fprintf(b, "// Set%s stores the %s field.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) Set%s(v bool) {\n\tb := byte(0)\n\tif v {\n\t\tb = 1\n\t}\n\tp.WriteUint8(%s, b)\n}\n\n", p, f.name, off)
		fmt.Fprintf(b, "// PWB%s flushes the cache line of %s.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) PWB%s() { p.PWBField(%s, 1) }\n\n", p, f.name, off)
		fmt.Fprintf(b, "// %sTx reads %s through a failure-atomic block.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) %sTx(tx *fa.Tx) (bool, error) {\n\tv, err := tx.ReadUint8(p.Object, %s)\n\treturn v != 0, err\n}\n\n", p, f.name, off)
		fmt.Fprintf(b, "// Set%sTx stores %s through a failure-atomic block.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) Set%sTx(tx *fa.Tx, v bool) error {\n\tb := byte(0)\n\tif v {\n\t\tb = 1\n\t}\n\treturn tx.WriteUint8(p.Object, %s, b)\n}\n\n", p, f.name, off)
		return
	case KindFloat64:
		fmt.Fprintf(b, "// %s reads the %s field.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) %s() float64 { return math.Float64frombits(p.ReadUint64(%s)) }\n\n", p, f.name, off)
		fmt.Fprintf(b, "// Set%s stores the %s field.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) Set%s(v float64) { p.WriteUint64(%s, math.Float64bits(v)) }\n\n", p, f.name, off)
		fmt.Fprintf(b, "// PWB%s flushes the cache line of %s.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) PWB%s() { p.PWBField(%s, 8) }\n\n", p, f.name, off)
		fmt.Fprintf(b, "// %sTx reads %s through a failure-atomic block.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) %sTx(tx *fa.Tx) (float64, error) {\n\tv, err := tx.ReadUint64(p.Object, %s)\n\treturn math.Float64frombits(v), err\n}\n\n", p, f.name, off)
		fmt.Fprintf(b, "// Set%sTx stores %s through a failure-atomic block.\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) Set%sTx(tx *fa.Tx, v float64) error { return tx.WriteUint64(p.Object, %s, math.Float64bits(v)) }\n\n", p, f.name, off)
		return
	}

	goType, rd, wr, txRd, txWr, width := kindGo(f.kind)
	cast := func(expr string) string {
		switch f.kind {
		case KindInt8, KindInt16, KindInt32:
			return fmt.Sprintf("%s(%s)", goType, expr)
		default:
			return expr
		}
	}
	uncast := func(expr string) string {
		switch f.kind {
		case KindInt8:
			return fmt.Sprintf("byte(%s)", expr)
		case KindInt16:
			return fmt.Sprintf("uint16(%s)", expr)
		case KindInt32:
			return fmt.Sprintf("uint32(%s)", expr)
		default:
			return expr
		}
	}
	fmt.Fprintf(b, "// %s reads the %s field.\n", f.name, f.name)
	fmt.Fprintf(b, "func (p *%s) %s() %s { return %s }\n\n", p, f.name, goType, cast(fmt.Sprintf("p.%s(%s)", rd, off)))
	fmt.Fprintf(b, "// Set%s stores the %s field.\n", f.name, f.name)
	fmt.Fprintf(b, "func (p *%s) Set%s(v %s) { p.%s(%s, %s) }\n\n", p, f.name, goType, wr, off, uncast("v"))
	fmt.Fprintf(b, "// PWB%s flushes the cache line holding %s (the pwbX of Figure 4).\n", f.name, f.name)
	fmt.Fprintf(b, "func (p *%s) PWB%s() { p.PWBField(%s, %d) }\n\n", p, f.name, off, width)
	fmt.Fprintf(b, "// %sTx reads %s through a failure-atomic block.\n", f.name, f.name)
	if cast("x") == "x" {
		fmt.Fprintf(b, "func (p *%s) %sTx(tx *fa.Tx) (%s, error) { return tx.%s(p.Object, %s) }\n\n", p, f.name, goType, txRd, off)
	} else {
		fmt.Fprintf(b, "func (p *%s) %sTx(tx *fa.Tx) (%s, error) {\n\tv, err := tx.%s(p.Object, %s)\n\treturn %s, err\n}\n\n", p, f.name, goType, txRd, off, cast("v"))
	}
	fmt.Fprintf(b, "// Set%sTx stores %s through a failure-atomic block.\n", f.name, f.name)
	fmt.Fprintf(b, "func (p *%s) Set%sTx(tx *fa.Tx, v %s) error { return tx.%s(p.Object, %s, %s) }\n\n", p, f.name, goType, txWr, off, uncast("v"))

	if f.kind == KindRef {
		fmt.Fprintf(b, "// AtomicSet%s atomically publishes po in %s: validate, fence,\n// then the reference write (§4.1.6, Figure 6).\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) AtomicSet%s(po core.PObject) { p.AtomicUpdateRef(%s, po) }\n\n", p, f.name, off)
		fmt.Fprintf(b, "// Replace%s atomically swings %s to po and frees the previous\n// referent (the second generated helper of §4.1.6).\n", f.name, f.name)
		fmt.Fprintf(b, "func (p *%s) Replace%s(po core.PObject) { p.AtomicReplaceRef(%s, po) }\n\n", p, f.name, off)
	}
}
