package coherence

// Cap returns the directory table's slot count, 0 while a bounded
// directory owns no table (before its first insert), for the sizing
// tests.
func (d *Directory) Cap() int {
	if &d.slots[0] == &d.none[0] {
		return 0
	}
	return len(d.slots)
}
