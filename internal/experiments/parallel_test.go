package experiments

import (
	"testing"

	"mugi/internal/runner"
)

// TestParallelOutputMatchesSerial is the runner's determinism contract:
// every registry artifact rendered with the worker pool at parallelism 8
// must be byte-identical to the serial rendering. Under -race this also exercises the concurrent sweep paths.
func TestParallelOutputMatchesSerial(t *testing.T) {
	slow := map[string]bool{"fig6": true, "fig7": true, "fig12": true, "fig14": true, "fig17": true}
	defer runner.SetParallelism(0)
	for _, e := range Registry() {
		if testing.Short() && slow[e.ID] {
			continue
		}
		runner.SetParallelism(1)
		serial := e.Run().String()

		runner.SetParallelism(8)
		parallel := e.Run().String()

		if serial != parallel {
			t.Errorf("%s: parallel rendering diverges from serial", e.ID)
		}
	}
}
