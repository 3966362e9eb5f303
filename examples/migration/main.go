// Migration: live-migrate a running VM between two simulated hosts under
// all three algorithms and at several guest dirty rates, reporting total
// time and downtime — the experiment that motivated pre-copy's design and
// post-copy's rebuttal.
package main

import (
	"fmt"
	"log"

	"govisor"
)

const (
	vmRAM = 8 << 20
	pool  = 64 << 20 >> 12
)

func main() {
	kernel, err := govisor.BuildKernel()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("live migration over a simulated 10 Gb/s link, 8 MiB guest")
	fmt.Printf("%-13s %-12s %12s %12s %10s %8s\n",
		"algorithm", "dirty rate", "total (ms)", "downtime(ms)", "sent (MiB)", "rounds")

	for _, load := range []struct {
		name  string
		pages uint64
		think uint64
	}{
		{"idle-ish", 8, 5000},
		{"moderate", 128, 500},
		{"hot", 512, 0},
	} {
		for _, alg := range []struct {
			name string
			opt  func() govisor.StreamOptions
		}{
			{"pre-copy", govisor.DefaultStreamOptions},
			{"stop-and-copy", func() govisor.StreamOptions {
				o := govisor.DefaultStreamOptions()
				o.Mode = govisor.StopAndCopy
				return o
			}},
			{"post-copy", func() govisor.StreamOptions {
				o := govisor.DefaultStreamOptions()
				o.Mode = govisor.PostCopy
				o.PostCopyPushChunk = 256
				return o
			}},
		} {
			src := bootVM(kernel, load.pages, load.think)
			dst, err := govisor.NewVM(govisor.NewPool(pool), govisor.Config{
				Name: "dst", Mode: govisor.ModeHW, MemBytes: vmRAM,
			})
			if err != nil {
				log.Fatal(err)
			}
			rep, err := govisor.StreamMigrate(src, dst, alg.opt())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-13s %-12s %12.2f %12.3f %10.1f %8d\n",
				alg.name, load.name,
				float64(rep.TotalCycles)/1e6, float64(rep.DowntimeCycles)/1e6,
				float64(rep.BytesSent)/(1<<20), len(rep.Rounds))
			// Prove the destination keeps working.
			dst.Step(20_000_000)
			if dst.State == govisor.StateError {
				log.Fatalf("destination broke: %v", dst.Err)
			}
		}
	}
	fmt.Println("\npre-copy downtime grows with dirty rate; post-copy keeps it flat")
	fmt.Println("and pays with demand-fetch latency after the switchover.")
}

func bootVM(kernel []byte, pages, think uint64) *govisor.VM {
	vm, err := govisor.NewVM(govisor.NewPool(pool), govisor.Config{
		Name: "src", Mode: govisor.ModeHW, MemBytes: vmRAM,
	})
	if err != nil {
		log.Fatal(err)
	}
	govisor.Dirty(0, pages, think).Apply(vm)
	if err := vm.Boot(kernel); err != nil {
		log.Fatal(err)
	}
	vm.Step(10_000_000) // warm the working set
	return vm
}
