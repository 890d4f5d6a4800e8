package bench

import (
	"fmt"
	"time"

	"aether/internal/core"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/txn"
	"aether/internal/workload"
)

// AblationELR isolates the claim at the end of §6.4: "flush pipelining
// depends on ELR to prevent log-induced lock contention which would
// otherwise limit scalability". It runs pipelined commit with and
// without early lock release on a skewed TPC-B (hot branch rows) —
// without ELR, commit-pending transactions keep their hot locks until
// the group flush completes, throttling everyone else.
func AblationELR(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: flush pipelining with vs without ELR (skewed TPC-B, ktps)",
		Columns: []string{"clients", "pipelined+ELR", "pipelined-no-ELR", "ELR gain"},
	}
	for _, clients := range scale.clientSweep() {
		run := func(mode txn.CommitMode) (float64, error) {
			rig, err := NewRig(EngineConfig{
				Variant: logbuf.VariantCD,
				Device:  logdev.ProfileFlash,
			})
			if err != nil {
				return 0, err
			}
			defer rig.Close()
			w := &workload.TPCB{Branches: 10, AccountsPerBranch: accountScale(scale), AccessSkew: 1.25}
			if err := w.Setup(rig.Eng); err != nil {
				return 0, err
			}
			res := workload.RunClosedLoop(rig.Eng, workload.Options{
				Clients: clients, Duration: scale.runFor(), Mode: mode,
			}, w.Body())
			return res.Throughput(), nil
		}
		with, err := run(txn.CommitPipelined)
		if err != nil {
			return nil, err
		}
		without, err := run(txn.CommitPipelinedHoldLocks)
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if without > 0 {
			gain = with / without
		}
		t.AddRow(fmt.Sprint(clients),
			fmt.Sprintf("%.1f", with/1000),
			fmt.Sprintf("%.1f", without/1000),
			fmt.Sprintf("%.2fx", gain))
	}
	return t, nil
}

// AblationGroupCommit sweeps the flush daemon's look interval
// (core.Config.FlushInterval: how long after a pass it looks for pending
// detached commits again) with the X-commits and L-bytes triggers off.
// Below the group window (1.5 ms) the interval only decides when a group
// is first noticed: the daemon then holds it until its commits stop
// arriving, or until the window after the previous flush has passed, so
// arrival pace and the window size the group. At or above the window
// nothing holds a group back any more and the interval spaces the
// flushes itself: groups grow with it and so does commit latency.
func AblationGroupCommit(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: flush-daemon look interval, X/L triggers off (TPC-B, pipelined, flash device)",
		Columns: []string{"interval", "ktps", "syncs/s", "txns per sync"},
	}
	intervals := []string{"10us", "50us", "200us", "1ms", "5ms"}
	clients := 16
	if scale.Quick {
		intervals = []string{"50us", "1ms"}
		clients = 8
	}
	for _, iv := range intervals {
		d, err := time.ParseDuration(iv)
		if err != nil {
			return nil, err
		}
		rig, err := NewRig(EngineConfig{
			Variant: logbuf.VariantCD,
			Device:  logdev.ProfileFlash,
			Log: core.Config{
				FlushInterval: d,
				// Disable the X-commits and L-bytes triggers: the first look
				// that finds a group then holds it until its commits stop
				// arriving or the group window has passed, and flushes it.
				FlushTxns:  1 << 30,
				FlushBytes: 1 << 30,
			},
		})
		if err != nil {
			return nil, err
		}
		w := &workload.TPCB{Branches: 10, AccountsPerBranch: accountScale(scale)}
		if err := w.Setup(rig.Eng); err != nil {
			rig.Close()
			return nil, err
		}
		res := workload.RunClosedLoop(rig.Eng, workload.Options{
			Clients: clients, Duration: scale.runFor(), Mode: txn.CommitPipelined,
		}, w.Body())
		perSync := 0.0
		if res.Flushes > 0 {
			perSync = float64(res.Completed) / float64(res.Flushes)
		}
		t.AddRow(iv,
			fmt.Sprintf("%.1f", res.Throughput()/1000),
			fmt.Sprintf("%.0f", float64(res.Flushes)/res.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", perSync))
		rig.Close()
	}
	return t, nil
}
