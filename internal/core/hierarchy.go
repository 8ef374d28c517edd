package core

import (
	"math"
	"sort"

	"dco/internal/simnet"
	"dco/internal/stable"
)

// This file implements the two-tier hierarchical infrastructure of
// §III-B1: a small set of stable coordinators forms the DHT; every other
// node is a lower-tier client that reports and looks up chunks *via* its
// coordinator. The DHT grows on demand — an overloaded coordinator promotes
// a stable client into the ring to shed load.

func (p *Peer) onAttach(m *attachMsg) {
	p.clients[m.From] = true
	p.send(m.From, kAttachOK, nil)
}

func (p *Peer) onAttachOK(from simnet.NodeID) {
	if p.inDHT {
		return
	}
	p.coordinator = from
	p.coordFails = 0
	p.joined = true
}

// onProxyLookup forwards a lower-tier client's Lookup into the DHT with the
// client as origin, so the owning coordinator answers the client directly.
func (p *Peer) onProxyLookup(m *proxyLookup) {
	p.opsThisSec++
	p.routeLookup(&lookupMsg{Key: p.sys.chunkKey(m.Seq), Seq: m.Seq, Origin: m.Origin})
}

func (p *Peer) onProxyInsert(m *proxyInsert) {
	p.opsThisSec++
	p.routeInsert(&insertMsg{
		Key:        p.sys.chunkKey(m.Seq),
		Seq:        m.Seq,
		Index:      m.Index,
		Unregister: m.Unregister,
	})
}

// loadTick resets the coordinator's per-second op counter and records
// whether the last second exceeded the overload threshold.
func (p *Peer) loadTick() {
	if !p.alive {
		return
	}
	p.overloaded = float64(p.opsThisSec) > p.sys.Cfg.Hierarchy.OverloadOpsPerSec
	p.opsThisSec = 0
}

// ClientCount reports attached lower-tier clients.
func (p *Peer) ClientCount() int { return len(p.clients) }

// longevityTick is the lower-tier client's periodic §III-B1b step: compute
// the Cox-model stay probability and volunteer for coordinator duty when it
// crosses the threshold.
func (p *Peer) longevityTick() {
	if !p.alive || p.inDHT || !p.joined || p.coordinator == simnet.Invalid {
		return
	}
	pl := p.Longevity()
	if pl >= p.sys.Cfg.Hierarchy.LongevityThreshold {
		p.send(p.coordinator, kVolunteer, &volunteerMsg{From: p.entry(), Longevity: pl})
	}
}

// Longevity evaluates Eq. (1) for this node right now: session age plus the
// streaming-quality and join-time covariates.
func (p *Peer) Longevity() float64 {
	age := p.sys.K.Now() - p.joinAt
	z := stable.Covariates{
		BufferingLevel: float64(p.buf.ConsecutiveFrom(p.cursor)),
		JoinHour:       math.Mod(p.joinAt.Hours(), 24),
	}
	return p.sys.Classifier.Model.Longevity(age, z)
}

// onVolunteer: an overloaded coordinator accepts a stable client's offer
// and sponsors its DHT join, shedding part of its key range and load.
func (p *Peer) onVolunteer(m *volunteerMsg) {
	if !p.overloaded || !p.inDHT {
		return
	}
	if p.sys.Trace != nil {
		p.tracef("coord.promote", "client=%d longevity=%.2f", m.From.Addr, m.Longevity)
	}
	p.send(m.From.Addr, kPromote, &promoteMsg{Sponsor: p.entry()})
	// Clear the flag so one overload burst promotes one client, not all.
	p.overloaded = false
}

func (p *Peer) onPromote(m *promoteMsg) {
	if p.inDHT || !p.alive {
		return
	}
	p.wantDHT = true
	p.send(m.Sponsor.Addr, kFind, &findMsg{Key: p.cs.Self.ID, Origin: p.id, Tag: tagJoin})
}

// redirectClients implements departure duty (1): recommend the successor to
// half the clients and the predecessor to the other half.
func (p *Peer) redirectClients(succ, pred entry) {
	if len(p.clients) == 0 {
		return
	}
	targets := make([]entry, 0, 2)
	if succ.OK && succ.Addr != p.id {
		targets = append(targets, succ)
	}
	if pred.OK && pred.Addr != p.id && (len(targets) == 0 || pred.Addr != targets[0].Addr) {
		targets = append(targets, pred)
	}
	if len(targets) == 0 {
		return
	}
	ids := make([]simnet.NodeID, 0, len(p.clients))
	for c := range p.clients {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, c := range ids {
		t := targets[i%len(targets)]
		p.send(c, kRedirect, &redirectMsg{Coordinators: []entry{t}})
	}
	p.clients = make(map[simnet.NodeID]bool)
}

// onRedirect re-attaches a client whose coordinator is departing.
func (p *Peer) onRedirect(m *redirectMsg) {
	if p.inDHT || len(m.Coordinators) == 0 {
		return
	}
	p.joined = false
	p.coordinator = m.Coordinators[0].Addr
	p.send(p.coordinator, kAttach, &attachMsg{From: p.id})
}
