package term

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashConsingConstants(t *testing.T) {
	s := NewStore()
	a := s.Constant("a")
	b := s.Constant("b")
	a2 := s.Constant("a")
	if a != a2 {
		t.Fatalf("constant a interned twice: %d vs %d", a, a2)
	}
	if a == b {
		t.Fatalf("distinct constants share ID %d", a)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Kind(a) != Const || s.Name(a) != "a" {
		t.Fatalf("bad cell for a: kind=%v name=%q", s.Kind(a), s.Name(a))
	}
	if !s.IsGround(a) {
		t.Fatal("constant not ground")
	}
}

func TestHashConsingVariablesAndCompounds(t *testing.T) {
	s := NewStore()
	x := s.Variable("X")
	y := s.Variable("Y")
	if x == y {
		t.Fatal("distinct variables share ID")
	}
	if s.IsGround(x) {
		t.Fatal("variable reported ground")
	}
	c := s.Constant("c")
	f1 := s.Compound("f", x, c)
	f2 := s.Compound("f", x, c)
	if f1 != f2 {
		t.Fatalf("compound interned twice: %d vs %d", f1, f2)
	}
	f3 := s.Compound("f", c, x)
	if f1 == f3 {
		t.Fatal("argument order ignored in hash-consing")
	}
	g := s.Compound("g", x, c)
	if g == f1 {
		t.Fatal("functor ignored in hash-consing")
	}
	if s.IsGround(f1) {
		t.Fatal("f(X,c) reported ground")
	}
	gr := s.Compound("f", c, c)
	if !s.IsGround(gr) {
		t.Fatal("f(c,c) reported non-ground")
	}
}

func TestDepth(t *testing.T) {
	s := NewStore()
	c := s.Constant("c")
	if s.Depth(c) != 0 {
		t.Fatalf("Depth(c)=%d", s.Depth(c))
	}
	f := s.Compound("f", c)
	ff := s.Compound("f", f)
	fff := s.Compound("f", ff, c)
	if s.Depth(f) != 1 || s.Depth(ff) != 2 || s.Depth(fff) != 3 {
		t.Fatalf("depths: %d %d %d", s.Depth(f), s.Depth(ff), s.Depth(fff))
	}
}

func TestStringRendering(t *testing.T) {
	s := NewStore()
	x := s.Variable("X")
	c := s.Constant("c7")
	f := s.Compound("f", c, s.Compound("g", x, c))
	if got, want := s.String(f), "f(c7,g(X,c7))"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestVarsCollection(t *testing.T) {
	s := NewStore()
	x, y := s.Variable("X"), s.Variable("Y")
	c := s.Constant("c")
	tm := s.Compound("f", x, s.Compound("g", y, x), c)
	vars := s.Vars(nil, tm)
	if len(vars) != 2 || vars[0] != x || vars[1] != y {
		t.Fatalf("Vars = %v, want [X Y] ids", vars)
	}
}

func TestFreshVar(t *testing.T) {
	s := NewStore()
	seen := map[ID]bool{}
	for i := 0; i < 100; i++ {
		v := s.FreshVar("v")
		if seen[v] {
			t.Fatalf("FreshVar repeated %v", s.String(v))
		}
		seen[v] = true
	}
}

func TestMatchGround(t *testing.T) {
	s := NewStore()
	x, y := s.Variable("X"), s.Variable("Y")
	a, bc := s.Constant("a"), s.Constant("b")
	pat := s.Compound("f", x, s.Compound("g", x, y))
	g1 := s.Compound("f", a, s.Compound("g", a, bc))
	g2 := s.Compound("f", a, s.Compound("g", bc, bc))

	b := NewBindings(s)
	if !b.Match(pat, g1) {
		t.Fatal("expected match")
	}
	if b.Lookup(x) != a || b.Lookup(y) != bc {
		t.Fatalf("bindings X=%v Y=%v", b.Lookup(x), b.Lookup(y))
	}
	b.Reset()
	if b.Match(pat, g2) {
		t.Fatal("matched with inconsistent X")
	}
	if b.Len() != 0 {
		t.Fatal("failed match left bindings behind")
	}
}

func TestMatchRespectsExistingBindings(t *testing.T) {
	s := NewStore()
	x := s.Variable("X")
	a, c := s.Constant("a"), s.Constant("c")
	b := NewBindings(s)
	b.Bind(x, a)
	if b.Match(x, c) {
		t.Fatal("match ignored existing binding")
	}
	if !b.Match(x, a) {
		t.Fatal("match failed against own binding")
	}
}

func TestMarkUndo(t *testing.T) {
	s := NewStore()
	x, y := s.Variable("X"), s.Variable("Y")
	a := s.Constant("a")
	b := NewBindings(s)
	b.Bind(x, a)
	m := b.Mark()
	b.Bind(y, a)
	if b.Lookup(y) != a {
		t.Fatal("bind lost")
	}
	b.Undo(m)
	if b.Lookup(y) != None {
		t.Fatal("undo did not remove Y")
	}
	if b.Lookup(x) != a {
		t.Fatal("undo removed too much")
	}
}

func TestUnifyBasics(t *testing.T) {
	s := NewStore()
	x, y := s.Variable("X"), s.Variable("Y")
	a := s.Constant("a")
	fxa := s.Compound("f", x, a)
	fay := s.Compound("f", a, y)
	b := NewBindings(s)
	if !b.Unify(fxa, fay) {
		t.Fatal("f(X,a) should unify with f(a,Y)")
	}
	if b.Resolve(x) != a || b.Resolve(y) != a {
		t.Fatalf("X=%s Y=%s", s.String(b.Resolve(x)), s.String(b.Resolve(y)))
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	s := NewStore()
	x := s.Variable("X")
	fx := s.Compound("f", x)
	b := NewBindings(s)
	if b.Unify(x, fx) {
		t.Fatal("occurs-check failed: X unified with f(X)")
	}
	if b.Len() != 0 {
		t.Fatal("failed unify left bindings")
	}
}

func TestUnifyVarVar(t *testing.T) {
	s := NewStore()
	x, y := s.Variable("X"), s.Variable("Y")
	a := s.Constant("a")
	b := NewBindings(s)
	if !b.Unify(x, y) {
		t.Fatal("var-var unify failed")
	}
	if !b.Unify(x, a) {
		t.Fatal("binding through chain failed")
	}
	if b.Resolve(y) != a {
		t.Fatalf("Y resolved to %s, want a", s.String(b.Resolve(y)))
	}
}

// TestUnifyResolvesLaterBindings: unifying f(Z,X) with f(g(X),a) binds
// Z to g(X) before X is bound to a, so resolving Z must follow X too.
func TestUnifyResolvesLaterBindings(t *testing.T) {
	s := NewStore()
	x, z := s.Variable("X"), s.Variable("Z")
	a := s.Constant("a")
	b := NewBindings(s)
	if !b.Unify(s.Compound("f", z, x), s.Compound("f", s.Compound("g", x), a)) {
		t.Fatal("f(Z,X) should unify with f(g(X),a)")
	}
	if got, want := b.Resolve(z), s.Compound("g", a); got != want {
		t.Fatalf("Z resolved to %s, want g(a)", s.String(got))
	}
}

func TestResolveRebuildsCompounds(t *testing.T) {
	s := NewStore()
	x := s.Variable("X")
	a := s.Constant("a")
	f := s.Compound("f", x, x)
	b := NewBindings(s)
	b.Bind(x, a)
	r := b.Resolve(f)
	if s.String(r) != "f(a,a)" {
		t.Fatalf("Resolve = %s", s.String(r))
	}
	if !s.IsGround(r) {
		t.Fatal("resolved term not ground")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	s := NewStore()
	a, b := s.Constant("a"), s.Constant("b")
	x := s.Variable("X")
	fa := s.Compound("f", a)
	fb := s.Compound("f", b)
	ids := []ID{fb, x, b, fa, a}
	s.SortIDs(ids)
	want := []ID{a, b, x, fa, fb}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", ids, want)
		}
	}
	for _, i := range ids {
		if s.Compare(i, i) != 0 {
			t.Fatal("Compare(t,t) != 0")
		}
	}
}

func TestExternInternRoundTrip(t *testing.T) {
	s1 := NewStore()
	x := s1.Variable("X")
	c := s1.Constant("c")
	tm := s1.Compound("f", c, s1.Compound("g", x, c))

	e := s1.Externalize(tm)
	s2 := NewStore()
	// Pre-populate s2 with junk so IDs differ between stores.
	s2.Constant("zzz")
	got := s2.Internalize(e)
	if s2.String(got) != s1.String(tm) {
		t.Fatalf("round-trip %q != %q", s2.String(got), s1.String(tm))
	}
	// Re-interning into the origin store must be a no-op ID-wise.
	if back := s1.Internalize(e); back != tm {
		t.Fatalf("re-intern changed ID: %d vs %d", back, tm)
	}
}

func TestExternTupleRoundTrip(t *testing.T) {
	s1, s2 := NewStore(), NewStore()
	tuple := []ID{s1.Constant("a"), s1.Compound("f", s1.Constant("b"))}
	wire := s1.ExternalizeTuple(tuple)
	back := s2.InternalizeTuple(wire)
	if len(back) != 2 || s2.String(back[0]) != "a" || s2.String(back[1]) != "f(b)" {
		t.Fatalf("tuple round-trip failed: %v", back)
	}
}

// randomTerm builds a random term over a small vocabulary.
func randomTerm(s *Store, r *rand.Rand, depth int) ID {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return s.Constant(string(rune('a' + r.Intn(4))))
		}
		return s.Variable(string(rune('X' + r.Intn(3))))
	}
	n := 1 + r.Intn(3)
	args := make([]ID, n)
	for i := range args {
		args[i] = randomTerm(s, r, depth-1)
	}
	return s.Compound(string(rune('f'+r.Intn(2))), args...)
}

// Property: hash-consing means structural equality iff ID equality, which we
// proxy through the rendered string (rendering is injective for our grammar).
func TestQuickHashConsIffStringEqual(t *testing.T) {
	s := NewStore()
	f := func(seed1, seed2 int64) bool {
		t1 := randomTerm(s, rand.New(rand.NewSource(seed1)), 3)
		t2 := randomTerm(s, rand.New(rand.NewSource(seed2)), 3)
		return (t1 == t2) == (s.String(t1) == s.String(t2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a successful unification produces a common instance.
func TestQuickUnifyProducesCommonInstance(t *testing.T) {
	s := NewStore()
	f := func(seed1, seed2 int64) bool {
		r1, r2 := rand.New(rand.NewSource(seed1)), rand.New(rand.NewSource(seed2))
		t1, t2 := randomTerm(s, r1, 3), randomTerm(s, r2, 3)
		b := NewBindings(s)
		if !b.Unify(t1, t2) {
			return true
		}
		return b.Resolve(t1) == b.Resolve(t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: matching a pattern against the result of grounding it succeeds.
func TestQuickMatchOwnInstance(t *testing.T) {
	s := NewStore()
	a := s.Constant("a0")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pat := randomTerm(s, r, 3)
		b := NewBindings(s)
		for _, v := range s.Vars(nil, pat) {
			b.Bind(v, a)
		}
		ground := b.Resolve(pat)
		if !s.IsGround(ground) {
			return false
		}
		b2 := NewBindings(s)
		return b2.Match(pat, ground)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: extern/intern across stores preserves rendering.
func TestQuickWireRoundTrip(t *testing.T) {
	src := NewStore()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm := randomTerm(src, r, 4)
		dst := NewStore()
		return dst.String(dst.Internalize(src.Externalize(tm))) == src.String(tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInternCompound(b *testing.B) {
	s := NewStore()
	c := s.Constant("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Compound("f", c, c)
	}
}

func BenchmarkMatch(b *testing.B) {
	s := NewStore()
	x, y := s.Variable("X"), s.Variable("Y")
	a, c := s.Constant("a"), s.Constant("c")
	pat := s.Compound("f", x, s.Compound("g", x, y))
	g := s.Compound("f", a, s.Compound("g", a, c))
	bd := NewBindings(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := bd.Mark()
		if !bd.Match(pat, g) {
			b.Fatal("match failed")
		}
		bd.Undo(m)
	}
}
