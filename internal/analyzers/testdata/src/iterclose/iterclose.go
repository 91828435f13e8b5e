// Package iterclose is a seeded-bad fixture for the iterclose analyzer:
// it defines a local Iterator contract and exercises both rules — child
// fields a Close method forgets, and call sites that drop an acquired
// iterator on the floor — plus a justified suppression.
package iterclose

type Tuple []int

type Batch struct{ Tuples []Tuple }

type Iterator interface {
	Open()
	NextBatch(max int) (*Batch, bool)
	Close()
}

type source struct{}

func (s *source) Open()                        {}
func (s *source) NextBatch(int) (*Batch, bool) { return nil, false }
func (s *source) Close()                       {}

func newSource() Iterator { return &source{} }

// leaky forgets its child in Close: rule 1 must fire.
type leaky struct {
	child Iterator
	buf   []Tuple
}

func (l *leaky) Open()                            { l.child.Open() }
func (l *leaky) NextBatch(max int) (*Batch, bool) { return l.child.NextBatch(max) }
func (l *leaky) Close()                           {} // want `leaky.Close does not close child field "child"`

// tidy releases every child, directly and through a range: no findings.
type tidy struct {
	child Iterator
	kids  []Iterator
}

func (t *tidy) Open()                        {}
func (t *tidy) NextBatch(int) (*Batch, bool) { return nil, false }
func (t *tidy) Close() {
	t.child.Close()
	for _, k := range t.kids {
		k.Close()
	}
}

// spool is not an Iterator but owns a niladic close: still a resource the
// parent must release.
type spool struct{}

func (s *spool) close() {}

type spooler struct {
	sp    *spool
	child Iterator
}

func (s *spooler) Open()                        {}
func (s *spooler) NextBatch(int) (*Batch, bool) { return nil, false }
func (s *spooler) Close() { // want `spooler.Close does not close child field "sp"`
	s.child.Close()
}

// managed's child belongs to an external registry: justified suppression.
type managed struct {
	child Iterator
}

func (m *managed) Open()                        {}
func (m *managed) NextBatch(int) (*Batch, bool) { return nil, false }

//lint:ignore iterclose the registry that built this iterator closes the child on teardown
func (m *managed) Close() {}

// drains acquires an iterator, drives it, and never closes it: rule 2.
func drains() {
	it := newSource() // want `iterator "it" is never closed and never handed off`
	it.Open()
	for {
		if _, ok := it.NextBatch(1); !ok {
			break
		}
	}
}

// closes is the good call site: Close is reachable via defer.
func closes() {
	it := newSource()
	defer it.Close()
	it.Open()
}

// handsOff escapes the iterator to its caller: the obligation moves with it.
func handsOff() Iterator {
	it := newSource()
	it.Open()
	return it
}
