package core

import (
	"testing"
)

func TestETNoiseValidation(t *testing.T) {
	dev := newDevice(t, 16, 1e6, 1)
	cfg := DefaultConfig(1)
	cfg.ETNoiseSigma = -0.1
	if _, err := New(dev, cfg); err == nil {
		t.Fatal("negative ET noise accepted")
	}
}

func TestETNoiseZeroMatchesTrue(t *testing.T) {
	dev := newDevice(t, 64, 1e6, 2)
	e, err := New(dev, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 64; p++ {
		if uint64(e.et[p]) != dev.Endurance(p) {
			t.Fatalf("noise-free ET differs from device at page %d", p)
		}
	}
}

func TestETNoisePerturbsTable(t *testing.T) {
	dev := newDevice(t, 256, 1e6, 4)
	cfg := DefaultConfig(5)
	cfg.ETNoiseSigma = 0.2
	e, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for p := 0; p < 256; p++ {
		if uint64(e.et[p]) != dev.Endurance(p) {
			diff++
		}
	}
	if diff < 200 {
		t.Fatalf("only %d/256 ET entries perturbed at sigma 0.2", diff)
	}
	// Noise must not corrupt pairing validity.
	if err := e.swpt.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestETNoiseDegradesGracefully: lifetime under the repeat attack must
// decrease as the measurement error grows, but moderate noise (20%) must
// not collapse it — the toss-up ratio only needs the *ordering* of pair
// members to be roughly right.
func TestETNoiseDegradesGracefully(t *testing.T) {
	lifetime := func(sigma float64) uint64 {
		dev := newDevice(t, 128, 4000, 11)
		cfg := DefaultConfig(13)
		cfg.ETNoiseSigma = sigma
		e, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var writes uint64
		for {
			e.Write(0, writes)
			writes++
			if _, failed := dev.Failed(); failed {
				return writes
			}
			if writes > 10_000_000 {
				t.Fatal("no failure")
			}
		}
	}
	exact := lifetime(0)
	noisy := lifetime(0.2)
	wild := lifetime(2.0)
	if noisy < exact/2 {
		t.Fatalf("20%% ET noise halved lifetime: %d vs %d", noisy, exact)
	}
	if wild > exact {
		t.Fatalf("wildly wrong ET (sigma 2.0) beat the exact table: %d vs %d", wild, exact)
	}
}
