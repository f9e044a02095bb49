package nvm

// DurableEqualsData reports whether every byte of the pool has been made
// durable (no dirty or queued lines). Only meaningful in tracked mode.
func (p *Pool) DurableEqualsData() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lines) == 0
}
