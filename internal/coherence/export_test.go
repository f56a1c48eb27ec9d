package coherence

// Cap returns the directory table's slot count, for the sizing tests.
func (d *Directory) Cap() int { return len(d.slots) }
