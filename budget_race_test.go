//go:build race

package hiway_test

// raceEnabled reports that the race detector is on. It drops a quarter of
// sync.Pool's Puts at random, so pooled buffers (fmt's printers, encoding/json's
// encoders) are allocated again and again, at random.
const raceEnabled = true
