package memory

import (
	"fmt"
)

// Context is the allocation context of one thread of control: a stack
// of entered memory areas plus the thread's heap-access permission.
// NoHeapRealtimeThreads run with noHeap contexts, which fault on any
// interaction with heap memory (RTSJ MemoryAccessError).
//
// A Context is owned by a single thread and is not safe for concurrent
// use; the areas it manipulates are.
type Context struct {
	stack  []*Area
	noHeap bool
}

// NewContext creates an allocation context whose initial allocation
// area is initial. A no-heap context may not start in heap memory.
func NewContext(initial *Area, noHeap bool) (*Context, error) {
	if initial == nil {
		return nil, fmt.Errorf("memory: context needs an initial area")
	}
	if noHeap && initial.Kind() == Heap {
		return nil, &MemoryAccessError{Op: "start in", Area: initial.Name()}
	}
	c := &Context{noHeap: noHeap}
	if err := initial.enter(nil); err != nil {
		return nil, err
	}
	c.stack = append(c.stack, initial)
	return c, nil
}

// Close releases the context, leaving every area still on its stack
// (innermost first). After Close the context must not be used.
func (c *Context) Close() {
	for i := len(c.stack) - 1; i >= 0; i-- {
		c.stack[i].exit()
	}
	c.stack = nil
}

// NoHeap reports whether the context forbids heap interaction.
func (c *Context) NoHeap() bool { return c.noHeap }

// Current returns the current allocation area (top of the scope
// stack).
func (c *Context) Current() *Area {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1]
}

// Depth returns the number of areas on the scope stack.
func (c *Context) Depth() int { return len(c.stack) }

// Stack returns a copy of the scope stack, outermost first.
func (c *Context) Stack() []*Area {
	out := make([]*Area, len(c.stack))
	copy(out, c.stack)
	return out
}

// OnStack reports whether a is on the context's scope stack.
func (c *Context) OnStack(a *Area) bool {
	for _, s := range c.stack {
		if s == a {
			return true
		}
	}
	return false
}

// Enter pushes a onto the scope stack, runs fn, and pops, enforcing
// the single parent rule for scoped areas and the no-heap restriction.
// Enter mirrors RTSJ's MemoryArea.enter(Runnable): the scope is kept
// alive (reference counted) for the duration of fn and reclaimed when
// the last thread leaves.
func (c *Context) Enter(a *Area, fn func() error) error {
	if a == nil {
		return fmt.Errorf("memory: enter of nil area")
	}
	if c.noHeap && a.Kind() == Heap {
		return &MemoryAccessError{Op: "enter", Area: a.Name()}
	}
	if err := a.enter(c.Current()); err != nil {
		return err
	}
	c.stack = append(c.stack, a)
	defer func() {
		c.stack = c.stack[:len(c.stack)-1]
		a.exit()
	}()
	return fn()
}

// ExecuteInArea runs fn with a as the current allocation area, as
// RTSJ's MemoryArea.executeInArea. Unlike Enter it does not establish
// new scope parentage: the target must be heap, immortal, or a scope
// already on the context's stack (an outer scope).
func (c *Context) ExecuteInArea(a *Area, fn func() error) error {
	if a == nil {
		return fmt.Errorf("memory: executeInArea of nil area")
	}
	if c.noHeap && a.Kind() == Heap {
		return &MemoryAccessError{Op: "execute in", Area: a.Name()}
	}
	if a.Kind() == Scoped && !c.OnStack(a) {
		return &InactiveScopeError{Scope: a.Name(), Op: "executeInArea from a context not inside it"}
	}
	if a.Kind() == Scoped {
		// Keep the scope alive for the duration even though it is
		// already on our stack; entering via the established parent is
		// not required for executeInArea, so bump the count directly.
		a.mu.Lock()
		a.refcount++
		a.mu.Unlock()
		defer a.exit()
	}
	c.stack = append(c.stack, a)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()
	return fn()
}

// Alloc allocates an object of the given size carrying value v in the
// current allocation area.
func (c *Context) Alloc(size int64, v any) (*Ref, error) {
	return c.AllocIn(c.Current(), size, v)
}

// AllocIn allocates in an explicit area, subject to the same rules as
// ExecuteInArea (no-heap contexts may not allocate in heap; scoped
// targets must be on the context's stack).
func (c *Context) AllocIn(a *Area, size int64, v any) (*Ref, error) {
	if a == nil {
		return nil, fmt.Errorf("memory: allocation in nil area")
	}
	if c.noHeap && a.Kind() == Heap {
		return nil, &MemoryAccessError{Op: "allocate in", Area: a.Name()}
	}
	if a.Kind() == Scoped && !c.OnStack(a) {
		return nil, &InactiveScopeError{Scope: a.Name(), Op: "allocate from a context not inside it"}
	}
	gen, err := a.alloc(size)
	if err != nil {
		return nil, err
	}
	return &Ref{area: a, gen: gen, size: size, value: v}, nil
}

// Load reads the object behind r, enforcing the no-heap read rule and
// dangling-scope detection.
func (c *Context) Load(r *Ref) (any, error) {
	if err := c.CheckLoad(r); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.value, nil
}

// CheckLoad applies Load's checks to r without reading its value: an
// object that keeps its data outside the Ref (an array of slots
// charged to the area as one region) is read under the same rules.
func (c *Context) CheckLoad(r *Ref) error {
	if r == nil {
		return fmt.Errorf("memory: load through nil reference")
	}
	if c.noHeap && r.area.Kind() == Heap {
		return &MemoryAccessError{Op: "read a reference into", Area: r.area.Name()}
	}
	if !r.valid() {
		return &InactiveScopeError{Scope: r.area.Name(), Op: "load of reclaimed object"}
	}
	return nil
}

// Store overwrites the object value behind r. The no-heap rule applies
// as for Load; the assignment rules do not (the value is opaque data,
// not a tracked reference — use Ref.SetField for reference stores).
func (c *Context) Store(r *Ref, v any) error {
	if err := c.CheckStore(r); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.value = v
	return nil
}

// CheckStore applies Store's checks to r without writing its value,
// as CheckLoad does for Load.
func (c *Context) CheckStore(r *Ref) error {
	if r == nil {
		return fmt.Errorf("memory: store through nil reference")
	}
	if c.noHeap && r.area.Kind() == Heap {
		return &MemoryAccessError{Op: "write through a reference into", Area: r.area.Name()}
	}
	if !r.valid() {
		return &InactiveScopeError{Scope: r.area.Name(), Op: "store to reclaimed object"}
	}
	return nil
}
