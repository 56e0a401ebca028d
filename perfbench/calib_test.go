package main

import "testing"

// Serial and parallel kernel runs compute the same trees, and the
// checksum catches a run that does not.
func TestCalibratorChecksum(t *testing.T) {
	c := newCalibrator()
	c.serial()
	c.parallel()
	if c.bad {
		t.Fatal("kernel checksum differs between runs")
	}
	c.want++
	if c.serial(); !c.bad {
		t.Fatal("a wrong checksum went unnoticed")
	}
}
