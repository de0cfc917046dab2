// Command app is the fixture's one program: what it reaches is live.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	lib.Used()
	var t lib.Table[int]
	t.Put(3)
	fmt.Println(t.Get(), lib.Named{}, other.Hello())

	opts := lib.Options{Set: 2}
	fmt.Println(opts.Set, opts.Unset)

	var run lib.Run
	var bits lib.Bits
	var wheel lib.Wheel
	bits.Set(3)
	wheel.Reset()
	fmt.Println(lib.Tuned{Knob: 1}.Total(), run.Step(), bits.Has(3), wheel.Slot(0))

	var cfg lib.Config
	if err := json.NewDecoder(os.Stdin).Decode(&cfg); err == nil {
		fmt.Println(cfg.Name)
	}
}
