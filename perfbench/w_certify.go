package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/export"
	"selfishnet/internal/metric"
)

// The certify workload: the star (two BFS levels) and the chain (n
// levels) at certifyN, with topogame certify's default α and band. The
// chain's time varies by about ±20% from one process to the next at
// any n (cache placement), so a steady median needs several passes per
// run; n = 8192 (a 2.5 s chain) fits five or more into a run.
const (
	certifyN     = 8192
	certifyAlpha = 2.0
	certifyBand  = 64
)

var certifyTopologies = []string{"star", "chain"}

// certifySetup is the instance build certify pays before its kernels.
func certifySetup() error {
	space, err := metric.UniformImplicit(certifyN)
	if err != nil {
		return err
	}
	inst, err := core.NewInstance(space, certifyAlpha)
	if err == nil {
		core.NewEvaluator(inst)
	}
	return err
}

func certifyArgs(topology string) []string {
	return []string{"certify", "-json", "-topology", topology, "-n", strconv.Itoa(certifyN)}
}

// certifyPass runs both certifications through the CLI and checks each
// table. It returns the pair's wall time, peak RSS and CPU time; ok is
// false when either run failed.
func (b *bench) certifyPass(record func(topology string, wall time.Duration)) (wall time.Duration, rss, cpu float64, ok bool) {
	ok = true
	for _, topology := range certifyTopologies {
		out, err := runCLI(b.ctx, filepath.Join(b.bin, "topogame"), certifyArgs(topology)...)
		if err != nil {
			b.log.fail("%v", err)
			ok = false
			continue
		}
		if !b.verify("certify-"+topology, out.stdout) {
			ok = false
			continue
		}
		record(topology, out.wall)
		wall += out.wall
		rss = max(rss, out.rssMiB)
		cpu += out.cpuS
	}
	return wall, rss, cpu, ok
}

func measureCertify(b *bench) error {
	return b.passes(func(int) error {
		setup, err := setupSeconds(certifySetup)
		if err != nil {
			return err
		}
		b.log.Setup = append(b.log.Setup, setup)
		wall, rss, _, ok := b.certifyPass(func(string, time.Duration) {})
		if ok {
			// One operation is the certify pair: the star and the chain
			// take about 0.7 s and 2.5 s, and the median of a mix of the
			// two would fall in the gap between them. No result reuse,
			// as in sweep-large-n.
			b.log.op(wall, &b.log.All, &b.log.Miss)
			b.log.Wall = append(b.log.Wall, wall.Seconds())
			b.log.RSS = append(b.log.RSS, rss)
		}
		return nil
	})
}

func traceCertify(b *bench) error {
	wall, _, cpu, ok := b.certifyPass(func(string, time.Duration) { b.log.checked() })
	if !ok {
		return nil
	}
	led := b.ledger
	for _, topology := range certifyTopologies {
		root, closeRoot := led.open(spanRoot, 0)
		tb, err := certifyTable(led, root, topology)
		closeRoot()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tb.WriteJSON(&buf); err != nil {
			return err
		}
		if b.verify("certify-"+topology, buf.Bytes()) {
			b.log.checked()
		}
	}
	for _, name := range []string{"core.instance", "core.certify", "core.banded_fold", "core.streamed_eval"} {
		b.layers[name+"_s"] = led.total(name)
	}
	b.processLayers(cpu, wall.Seconds())
	b.traceLayers(wall.Seconds())
	return nil
}

// certifyTable performs topogame certify's work through the core's
// public functions, a span around each, and renders the same table.
func certifyTable(led *ledger, parent int, topology string) (*export.Table, error) {
	var (
		cert core.Certification
		p    core.Profile
		ev   *core.Evaluator
	)
	peerEval := core.StarPeerEval
	err := led.timed("core.certify", parent, func() (err error) {
		if topology == "star" {
			if cert, err = core.CertifyStar(certifyN, certifyAlpha, bestresponse.Tolerance); err == nil {
				p, err = core.StarProfile(certifyN)
			}
			return err
		}
		peerEval = core.ChainPeerEval
		if cert, err = core.CertifyChain(certifyN, certifyAlpha, bestresponse.Tolerance); err == nil {
			p, err = core.ChainProfile(certifyN)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := led.timed("core.instance", parent, func() error {
		space, err := metric.UniformImplicit(certifyN)
		if err != nil {
			return err
		}
		inst, err := core.NewInstance(space, certifyAlpha)
		if err == nil {
			ev = core.NewEvaluator(inst)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := led.timed("core.banded_fold", parent, func() error {
		banded, err := ev.SocialCostBanded(p, certifyBand)
		if err == nil && banded != cert.Social {
			err = fmt.Errorf("banded social cost %+v != closed form %+v", banded, cert.Social)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := led.timed("core.streamed_eval", parent, func() error {
		for _, i := range []int{0, 1, certifyN / 2, certifyN - 1} {
			if got, want := ev.PeerEvalStreamed(p, i), peerEval(certifyN, certifyAlpha, i); got != want {
				return fmt.Errorf("peer %d eval %+v != closed form %+v", i, got, want)
			}
		}
		if !cert.Stable {
			if got := ev.DeviationEvalStreamed(p, cert.Deviator, cert.Witness); got != cert.WitnessEval {
				return fmt.Errorf("witness eval %+v != closed form %+v", got, cert.WitnessEval)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	deviator := "-"
	if !cert.Stable {
		deviator = export.Int(cert.Deviator)
	}
	return &export.Table{
		Title: fmt.Sprintf("certify: %s n=%d α=%v", topology, certifyN, certifyAlpha),
		Headers: []string{"topology", "n", "alpha", "band", "nash", "social-cost",
			"best-gain", "deviator", "est-social", "est-social-ci"},
		Rows: [][]string{{
			topology, export.Int(certifyN), export.Num(certifyAlpha), export.Int(certifyBand),
			fmt.Sprintf("%v", cert.Stable), export.Num(cert.Social.Total()),
			export.Num(cert.BestGain), deviator, "-", "-",
		}},
		Notes: []string{
			"social-cost: closed form, reproduced == by the banded multi-source kernel",
			"per-peer closed forms and the witness deviation (when unstable) verified == through the streamed evaluator",
		},
	}, nil
}
