package harness

import (
	"fmt"
	"strings"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/topo"
)

// Scheme is one evaluated configuration: a base load balancer, optionally
// with RLB layered on top.
type Scheme struct {
	Name string
	LB   lb.Factory
	// RLB is nil for vanilla schemes.
	RLB *core.Params
}

// baseFactory returns the base LB factory by name, with parameters matched
// to the paper's configurations.
func baseFactory(name string, linkDelay sim.Time) (lb.Factory, error) {
	switch name {
	case "ecmp":
		return lb.NewECMP(), nil
	case "presto":
		return lb.NewPresto(64*1000, fabric.DefaultMTU), nil
	case "letflow":
		return lb.NewLetFlow(50 * sim.Microsecond), nil
	case "hermes":
		return lb.NewHermes(fabric.DefaultMTU, 2*linkDelay), nil
	case "conga":
		return lb.NewCONGA(50 * sim.Microsecond), nil
	case "drill":
		return lb.NewDRILL(2, 1), nil
	default:
		return nil, fmt.Errorf("harness: unknown scheme %q (valid: %s)", name, schemeNameList())
	}
}

// SchemeByName builds a Scheme from names like "presto", "drill+rlb".
// rlbParams customizes RLB; pass nil for defaults.
func SchemeByName(name string, linkDelay sim.Time, rlbParams *core.Params) (Scheme, error) {
	base, withRLB := name, false
	if strings.HasSuffix(name, "+rlb") {
		base, withRLB = strings.TrimSuffix(name, "+rlb"), true
	}
	f, err := baseFactory(base, linkDelay)
	if err != nil {
		return Scheme{}, err
	}
	s := Scheme{Name: name, LB: f}
	if withRLB {
		if rlbParams != nil {
			p := *rlbParams
			s.RLB = &p
		} else {
			p := core.DefaultParams(linkDelay)
			s.RLB = &p
		}
	}
	return s, nil
}

// Apply installs the scheme into topology params.
func (s Scheme) Apply(p *topo.Params) {
	p.LB = s.LB
	p.RLB = s.RLB
}

// FourSchemes lists the paper's four base schemes in presentation order.
var FourSchemes = []string{"presto", "letflow", "hermes", "drill"}
