package sim

// Resource models a serially-reusable piece of hardware (a host CPU, a NIC
// DMA engine, a link transmitter): at most one operation occupies it at a
// time, and requests queue in FIFO order.
//
// Acquire-style APIs invite deadlocks in callback-driven simulations, so
// Resource instead exposes a single combining operation: Use schedules work
// of a given duration as soon as the resource is free, and invokes done
// when the work completes. The occupancy bookkeeping is just a "free at"
// watermark — exact, because grants are FIFO and durations are known at
// request time.
type Resource struct {
	eng    *Engine
	freeAt Time
}

// NewResource returns a resource bound to the engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// Use reserves the resource for dur cycles starting as soon as it is free,
// and schedules done at the completion time. It returns the completion
// time. A nil done simply occupies the resource.
func (r *Resource) Use(dur Time, done func()) Time {
	if done == nil {
		return r.UseArg(dur, nil, nil)
	}
	return r.UseArg(dur, Call, done)
}

// UseArg is Use with an argument-taking completion callback: hot paths pass
// one long-lived fn and a per-grant arg instead of allocating a closure per
// grant (see Engine.ScheduleArg).
func (r *Resource) UseArg(dur Time, done func(any), arg any) Time {
	start := r.freeAt
	if now := r.eng.Now(); start < now {
		start = now
	}
	end := start + dur
	r.freeAt = end
	if done != nil {
		r.eng.ScheduleArgAt(end, done, arg)
	}
	return end
}

// Block extends the resource's occupancy through at least time t, without a
// completion callback. It is used to model an external agent (e.g. the
// noded copying buffers) holding the CPU.
func (r *Resource) Block(until Time) {
	if until > r.freeAt {
		r.freeAt = until
	}
}

// Unblock cancels the unconsumed remainder of the resource's occupancy: the
// resource becomes free now. It models the external agent releasing the
// hardware early — a repaired node whose fail-stop Block(∞) ends. Completion
// callbacks already scheduled by Use keep their original times; only the
// watermark moves.
func (r *Resource) Unblock() {
	if now := r.eng.Now(); r.freeAt > now {
		r.freeAt = now
	}
}
