// Command gendt-train trains a GenDT model on a synthesized dataset's
// training split and saves it to disk. With -checkpoint-dir it writes
// crash-safe checkpoints at epoch boundaries; -resume restarts from the
// newest valid checkpoint and is bit-identical to a run that never
// stopped.
//
// Usage:
//
//	gendt-train -out model.json [-dataset NAME] [-scenario-file F.toml]
//	            [-scale F] [-seed N]
//	            [-channels rsrp,rsrq,sinr,cqi] [-epochs N] [-hidden N]
//	            [-workers N] [-cpuprofile F] [-memprofile F]
//	            [-checkpoint-dir DIR] [-checkpoint-every N] [-checkpoint-keep K]
//	            [-resume] [-fingerprint]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gendt/internal/ckpt"
	"gendt/internal/core"
	"gendt/internal/dataset"
)

func main() {
	out := flag.String("out", "gendt-model.json", "output model path")
	world := dataset.AddWorldFlags(flag.CommandLine, 0.05, "")
	flag.Lookup("seed").Usage += "; also seeds the model's initialization and training"
	channels := flag.String("channels", "rsrp,rsrq,sinr,cqi", "comma-separated channels (rsrp,rsrq,sinr,cqi,servingrank)")
	epochs := flag.Int("epochs", 20, "training epochs")
	hidden := flag.Int("hidden", 32, "hidden dimension")
	batchLen := flag.Int("batch", 24, "batch (window) length L")
	stepLen := flag.Int("step", 6, "training window stride Δt")
	maxCells := flag.Int("maxcells", 10, "visible-cell cap per step")
	workers := flag.Int("workers", 0, "data-parallel training workers (0 = NumCPU, 1 = serial)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for crash-safe training checkpoints (empty = no checkpointing)")
	ckptEvery := flag.Int("checkpoint-every", 1, "write a checkpoint every N epochs")
	ckptKeep := flag.Int("checkpoint-keep", ckpt.DefaultKeep, "checkpoints to retain (newest K, plus the best-MSE one)")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	fingerprint := flag.Bool("fingerprint", false, "print the trained model's weight fingerprint (bit-exactness checks)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	var chans []core.ChannelSpec
	for _, name := range strings.Split(*channels, ",") {
		ch, err := core.ChannelByName(canonical(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		chans = append(chans, ch)
	}

	d, err := world.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-train:", err)
		os.Exit(2)
	}

	var store *ckpt.Store
	if *ckptDir != "" {
		var err error
		store, err = ckpt.NewStore(ckpt.OSFS{}, *ckptDir, *ckptKeep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *resume && store == nil {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint-dir")
		os.Exit(2)
	}

	cfg := core.Config{
		Channels: chans,
		Hidden:   *hidden, BatchLen: *batchLen, StepLen: *stepLen,
		MaxCells: *maxCells, Epochs: *epochs, Seed: world.Seed,
		Workers: *workers,
	}

	opts := core.TrainOpts{Logf: func(f string, a ...any) { fmt.Printf(f+"\n", a...) }}
	if *resume {
		man, payload, err := store.Latest()
		switch {
		case errors.Is(err, ckpt.ErrNoCheckpoint):
			fmt.Println("resume: no checkpoint found, starting fresh")
		case err != nil:
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		default:
			ts, err := core.DecodeTrainState(payload)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// The checkpoint defines the run being continued; CLI
			// architecture/schedule flags are superseded by it. The
			// dataset flags (-dataset, -scale, -seed) must still match
			// the original run — a mismatch is caught by the trainer's
			// window-count/permutation validation.
			cfg, err = ts.ModelConfig()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			opts.Resume = ts
			fmt.Printf("resume: checkpoint epoch %d/%d (mse %.5f) from %s\n",
				ts.Epoch, cfg.Epochs, man.Score, *ckptDir)
		}
	}

	fmt.Printf("dataset %s: %d train runs\n", d.Name, len(d.TrainRuns()))
	seqs := core.PrepareAll(d.TrainRuns(), cfg.Channels, cfg.MaxCells)

	m := core.NewModel(cfg)
	if store != nil {
		every := *ckptEvery
		if every < 1 {
			every = 1
		}
		opts.AfterEpoch = func(ev core.EpochEvent) error {
			if ev.Epoch%every != 0 && ev.Epoch != ev.Epochs {
				return nil
			}
			data, err := core.EncodeTrainState(ev.State())
			if err != nil {
				return err
			}
			if err := store.Save(ev.Epoch, ev.MSE, data); err != nil {
				return err
			}
			fmt.Printf("checkpoint: epoch %d -> %s\n", ev.Epoch, *ckptDir)
			return nil
		}
	}

	fmt.Println("training", m.String())
	res, err := m.TrainWithOptions(seqs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("trained on %d windows, final mse %.5f\n", res.Windows, res.FinalMSE)
	if err := m.SaveFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("saved", *out)
	if *fingerprint {
		fmt.Printf("fingerprint %016x\n", m.Fingerprint())
	}
}

// writeMemProfile records a post-GC heap profile (no-op when path is "").
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func canonical(name string) string {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "rsrp":
		return "RSRP"
	case "rsrq":
		return "RSRQ"
	case "sinr":
		return "SINR"
	case "cqi":
		return "CQI"
	case "servingrank", "serving":
		return "ServingRank"
	default:
		return name
	}
}
