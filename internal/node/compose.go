package node

// Behavior composition: several protocol modules sharing one entity.
// Each part sees every delivered message and filters by tag, so modules
// with disjoint tag spaces (a leader elector beside a register) compose
// without knowing about each other.

// Composite is a Behavior that fans Init and Receive out to its parts,
// in order.
type Composite struct {
	parts []Behavior
}

// Compose builds a composite behavior from the given parts.
func Compose(parts ...Behavior) *Composite {
	if len(parts) == 0 {
		panic("node: Compose with no parts")
	}
	cp := make([]Behavior, len(parts))
	copy(cp, parts)
	return &Composite{parts: cp}
}

// Init implements Behavior.
func (c *Composite) Init(p *Proc) {
	for _, b := range c.parts {
		b.Init(p)
	}
}

// Receive implements Behavior.
func (c *Composite) Receive(p *Proc, m Message) {
	for _, b := range c.parts {
		b.Receive(p, m)
	}
}

// FindBehavior locates a part of type T inside a (possibly composite)
// behavior. Protocol launchers use it so queries can be launched on
// entities that run the protocol alongside other modules.
func FindBehavior[T Behavior](b Behavior) (T, bool) {
	if t, ok := b.(T); ok {
		return t, true
	}
	if c, ok := b.(*Composite); ok {
		for _, part := range c.parts {
			if t, ok := FindBehavior[T](part); ok {
				return t, true
			}
		}
	}
	var zero T
	return zero, false
}
