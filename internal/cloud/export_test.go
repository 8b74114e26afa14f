package cloud

import (
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/execsim"
)

// Admission is what the admission an Admitted hook reports ran: the
// decision fixed at submission, the decision that ran and its execution,
// and, for a degraded admission, the conditions its class offered when
// the head was scanned.
type Admission struct {
	Submitted, Ran *core.Decision
	Res            *execsim.Result
	Offered        cluster.Conditions
}

// LastAdmission reports the admission an Admitted hook is running for.
func (a *Arbiter) LastAdmission() Admission {
	var last int64 // the newest allocation is the one being admitted
	for tok := range a.inflight {
		last = max(last, tok)
	}
	run := a.inflight[last]
	adm := Admission{Submitted: run.p.dec, Ran: run.dec, Res: run.res}
	for _, o := range a.offerBuf {
		if a.pool.Class(o.class).Name == run.p.admitted.Class {
			adm.Offered = o.cond
			break
		}
	}
	return adm
}

// Reoptimizer returns the arbiter's decision memo.
func (a *Arbiter) Reoptimizer() *core.Incremental { return a.reopt }
