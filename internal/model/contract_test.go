package model

import (
	"testing"
	"time"
)

func TestParseOverloadPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want OverloadPolicy
		ok   bool
	}{
		{"shed", Shed, true},
		{"block", Block, true},
		{"degrade", Degrade, true},
		{"Degrade", Degrade, true},
		{"", Shed, true}, // default
		{"drop", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseOverloadPolicy(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseOverloadPolicy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseOverloadPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, p := range []OverloadPolicy{Shed, Block, Degrade} {
		back, err := ParseOverloadPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestContractValidate(t *testing.T) {
	good := []Contract{
		{},
		{MaxRate: 100, Burst: 8, Policy: Shed},
		{LatencyBudget: 2 * time.Millisecond, MaxRate: 100, Policy: Degrade},
		{LatencyBudget: time.Millisecond, Policy: Block},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good contract %d rejected: %v", i, err)
		}
	}
	bad := []Contract{
		{LatencyBudget: -1},
		{MaxRate: -5},
		{MaxRate: 10, Burst: -1},
		{MissTolerance: -2},
		{Burst: 4},                     // burst without a rate
		{MaxRate: 10, Policy: 99},      // unknown policy
		{MaxRate: 10, Policy: Degrade}, // degrade without a budget
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad contract %d accepted: %+v", i, c)
		}
	}
}

func contractArch(t *testing.T) *Architecture {
	t.Helper()
	a := NewArchitecture("contracts")
	cli, err := a.NewActive("client", Activation{Kind: SporadicActivation})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.AddInterface(Interface{Name: "out", Role: ClientRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewActive("server", Activation{Kind: SporadicActivation})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddInterface(Interface{Name: "in", Role: ServerRole, Signature: "I"}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBindValidatesAndCopiesContract(t *testing.T) {
	a := contractArch(t)
	c := &Contract{MaxRate: 50, Burst: 4}
	b, err := a.Bind(Binding{
		Client:     Endpoint{Component: "client", Interface: "out"},
		Server:     Endpoint{Component: "server", Interface: "in"},
		Protocol:   Asynchronous,
		BufferSize: 8,
		Contract:   c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Contract == c {
		t.Error("binding aliases the caller's contract; want a copy")
	}
	if b.Contract.Policy != Shed {
		t.Errorf("zero policy not normalized to Shed: %v", b.Contract.Policy)
	}
	c.MaxRate = 9999
	if b.Contract.MaxRate != 50 {
		t.Error("mutating the caller's contract altered the binding")
	}

	a2 := contractArch(t)
	_, err = a2.Bind(Binding{
		Client:     Endpoint{Component: "client", Interface: "out"},
		Server:     Endpoint{Component: "server", Interface: "in"},
		Protocol:   Asynchronous,
		BufferSize: 8,
		Contract:   &Contract{MaxRate: -1},
	})
	if err == nil {
		t.Fatal("invalid contract accepted by Bind")
	}
}
