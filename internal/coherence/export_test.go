package coherence

// Cap returns the directory table's home-bucket count, 0 while a bounded
// directory owns no table (before its first insert), for the sizing
// tests; the table holds dirTail slots more.
func (d *Directory) Cap() int {
	if &d.slots[0] == &d.none[0] {
		return 0
	}
	return int(d.buckets)
}
