package adl

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"soleil/internal/fixture"
	"soleil/internal/model"
)

// fig4XML is the motivation example of Fig. 4 in the paper's dialect.
const fig4XML = `<?xml version="1.0"?>
<Architecture name="factory-monitoring">
  <ActiveComponent name="ProductionLine" type="periodic" periodicity="10ms">
    <interface name="iMonitor" role="client" signature="IMonitor"/>
    <content class="ProductionLineImpl"/>
  </ActiveComponent>
  <ActiveComponent name="MonitoringSystem" type="sporadic">
    <interface name="iMonitor" role="server" signature="IMonitor"/>
    <interface name="iConsole" role="client" signature="IConsole"/>
    <interface name="iLog" role="client" signature="ILog"/>
    <content class="MonitoringSystemImpl"/>
  </ActiveComponent>
  <ActiveComponent name="Audit" type="sporadic">
    <interface name="iLog" role="server" signature="ILog"/>
    <content class="AuditImpl"/>
  </ActiveComponent>
  <PassiveComponent name="Console">
    <interface name="iConsole" role="server" signature="IConsole"/>
    <content class="ConsoleImpl"/>
  </PassiveComponent>
  <Binding>
    <client cname="ProductionLine" iname="iMonitor"/>
    <server cname="MonitoringSystem" iname="iMonitor"/>
    <BindDesc protocol="asynchronous" bufferSize="10"/>
  </Binding>
  <Binding>
    <client cname="MonitoringSystem" iname="iConsole"/>
    <server cname="Console" iname="iConsole"/>
    <BindDesc protocol="synchronous"/>
  </Binding>
  <Binding>
    <client cname="MonitoringSystem" iname="iLog"/>
    <server cname="Audit" iname="iLog"/>
    <BindDesc protocol="asynchronous" bufferSize="16"/>
  </Binding>
  <MemoryArea name="Imm1">
    <ThreadDomain name="NHRT1">
      <ActiveComp name="ProductionLine"/>
      <DomainDesc type="NHRT" priority="30"/>
    </ThreadDomain>
    <ThreadDomain name="NHRT2">
      <ActiveComp name="MonitoringSystem"/>
      <DomainDesc type="NHRT" priority="25"/>
    </ThreadDomain>
    <AreaDesc type="immortal" size="600KB"/>
  </MemoryArea>
  <MemoryArea name="S1">
    <PassiveComp name="Console"/>
    <AreaDesc type="scope" name="cscope" size="28KB"/>
  </MemoryArea>
  <MemoryArea name="H1">
    <ThreadDomain name="reg1">
      <ActiveComp name="Audit"/>
      <DomainDesc type="Regular" priority="5"/>
    </ThreadDomain>
    <AreaDesc type="heap"/>
  </MemoryArea>
</Architecture>
`

func TestDecodeFig4(t *testing.T) {
	a, err := DecodeString(fig4XML)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "factory-monitoring" {
		t.Fatalf("name = %q", a.Name())
	}
	pl, ok := a.Component("ProductionLine")
	if !ok {
		t.Fatal("ProductionLine missing")
	}
	act := pl.Activation()
	if act.Kind != model.PeriodicActivation || act.Period != 10*time.Millisecond {
		t.Fatalf("activation = %+v", act)
	}
	if pl.Content() != "ProductionLineImpl" {
		t.Fatalf("content = %q", pl.Content())
	}
	td, err := a.EffectiveThreadDomain(pl)
	if err != nil {
		t.Fatal(err)
	}
	if td.Name() != "NHRT1" || td.Domain().Kind != model.NoHeapRealtimeThread || td.Domain().Priority != 30 {
		t.Fatalf("thread domain = %s %+v", td.Name(), td.Domain())
	}
	ma, err := a.EffectiveMemoryArea(pl)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Name() != "Imm1" || ma.Area().Kind != model.ImmortalMemory || ma.Area().Size != 600<<10 {
		t.Fatalf("memory area = %s %+v", ma.Name(), ma.Area())
	}
	console, _ := a.Component("Console")
	cma, err := a.EffectiveMemoryArea(console)
	if err != nil {
		t.Fatal(err)
	}
	if cma.Area().Kind != model.ScopedMemory || cma.Area().ScopeName != "cscope" || cma.Area().Size != 28<<10 {
		t.Fatalf("console area = %+v", cma.Area())
	}
	if got := len(a.Bindings()); got != 3 {
		t.Fatalf("bindings = %d", got)
	}
	b := a.Bindings()[0]
	if b.Protocol != model.Asynchronous || b.BufferSize != 10 {
		t.Fatalf("binding 0 = %+v", b)
	}
}

// signature produces a canonical structural description of an
// architecture for equality checks.
func signature(a *model.Architecture) string {
	var lines []string
	for _, c := range a.Components() {
		line := fmt.Sprintf("comp %s kind=%s content=%q", c.Name(), c.Kind(), c.Content())
		if act := c.Activation(); act != nil {
			line += fmt.Sprintf(" act=%s/%v/%v/%v", act.Kind, act.Period, act.Deadline, act.Cost)
		}
		if d := c.Domain(); d != nil {
			line += fmt.Sprintf(" dom=%s/%d", d.Kind, d.Priority)
		}
		if ar := c.Area(); ar != nil {
			line += fmt.Sprintf(" area=%s/%s/%d", ar.Kind, ar.ScopeName, ar.Size)
		}
		for _, it := range c.Interfaces() {
			line += fmt.Sprintf(" itf=%s/%s/%s", it.Name, it.Role, it.Signature)
		}
		var parents []string
		for _, s := range c.Supers() {
			parents = append(parents, s.Name())
		}
		sort.Strings(parents)
		line += " parents=" + strings.Join(parents, ",")
		lines = append(lines, line)
	}
	for _, b := range a.Bindings() {
		lines = append(lines, fmt.Sprintf("bind %s->%s %s/%d/%s",
			b.Client, b.Server, b.Protocol, b.BufferSize, b.Pattern))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestRoundTripFig4(t *testing.T) {
	a, err := DecodeString(fig4XML)
	if err != nil {
		t.Fatal(err)
	}
	out, err := EncodeString(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeString(out)
	if err != nil {
		t.Fatalf("re-decode: %v\n%s", err, out)
	}
	if signature(a) != signature(b) {
		t.Fatalf("round trip changed the architecture:\n--- first\n%s\n--- second\n%s",
			signature(a), signature(b))
	}
}

func TestRoundTripFixture(t *testing.T) {
	a, err := fixture.MotivationExample()
	if err != nil {
		t.Fatal(err)
	}
	out, err := EncodeString(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeString(out)
	if err != nil {
		t.Fatalf("re-decode: %v\n%s", err, out)
	}
	// The fixture's functional composite is rebuilt from refs.
	if signature(a) != signature(b) {
		t.Fatalf("round trip changed the architecture:\n--- first\n%s\n--- second\n%s",
			signature(a), signature(b))
	}
	// Second round trip is stable byte-for-byte.
	out2, err := EncodeString(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Fatal("encoding is not stable across a round trip")
	}
}

func TestDecodeNestedAreas(t *testing.T) {
	const doc = `<Architecture name="nested">
  <PassiveComponent name="p">
    <interface name="s" role="server" signature="I"/>
  </PassiveComponent>
  <MemoryArea name="outer">
    <MemoryArea name="inner">
      <PassiveComp name="p"/>
      <AreaDesc type="scope" size="1KB"/>
    </MemoryArea>
    <AreaDesc type="scope" size="4KB"/>
  </MemoryArea>
</Architecture>`
	a, err := DecodeString(doc)
	if err != nil {
		t.Fatal(err)
	}
	inner, ok := a.Component("inner")
	if !ok {
		t.Fatal("inner missing")
	}
	outer, _ := a.Component("outer")
	supers := inner.Supers()
	if len(supers) != 1 || supers[0] != outer {
		t.Fatal("nesting lost")
	}
	p, _ := a.Component("p")
	got, err := a.EffectiveMemoryArea(p)
	if err != nil || got != inner {
		t.Fatalf("p's area = %v, %v", got, err)
	}
	// Round trip keeps nesting.
	out, err := EncodeString(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeString(out)
	if err != nil {
		t.Fatal(err)
	}
	if signature(a) != signature(b) {
		t.Fatal("nested round trip changed the architecture")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":            `garbage`,
		"unknown activation": `<Architecture><ActiveComponent name="a" type="weird"/></Architecture>`,
		"bad periodicity":    `<Architecture><ActiveComponent name="a" type="periodic" periodicity="10xs"/></Architecture>`,
		"missing period":     `<Architecture><ActiveComponent name="a" type="periodic"/></Architecture>`,
		"bad role":           `<Architecture><PassiveComponent name="p"><interface name="i" role="weird"/></PassiveComponent></Architecture>`,
		"binding no desc": `<Architecture>
			<ActiveComponent name="a" type="sporadic"><interface name="c" role="client" signature="I"/></ActiveComponent>
			<PassiveComponent name="p"><interface name="s" role="server" signature="I"/></PassiveComponent>
			<Binding><client cname="a" iname="c"/><server cname="p" iname="s"/></Binding></Architecture>`,
		"binding bad protocol": `<Architecture>
			<ActiveComponent name="a" type="sporadic"><interface name="c" role="client" signature="I"/></ActiveComponent>
			<PassiveComponent name="p"><interface name="s" role="server" signature="I"/></PassiveComponent>
			<Binding><client cname="a" iname="c"/><server cname="p" iname="s"/><BindDesc protocol="smoke"/></Binding></Architecture>`,
		"domain no desc":     `<Architecture><ThreadDomain name="td"/></Architecture>`,
		"domain bad type":    `<Architecture><ThreadDomain name="td"><DomainDesc type="zz"/></ThreadDomain></Architecture>`,
		"area no desc":       `<Architecture><MemoryArea name="m"/></Architecture>`,
		"area bad type":      `<Architecture><MemoryArea name="m"><AreaDesc type="zz"/></MemoryArea></Architecture>`,
		"area bad size":      `<Architecture><MemoryArea name="m"><AreaDesc type="scope" size="huge"/></MemoryArea></Architecture>`,
		"dangling ref":       `<Architecture><ThreadDomain name="td"><ActiveComp name="ghost"/><DomainDesc type="RT"/></ThreadDomain></Architecture>`,
		"dangling composite": `<Architecture><CompositeComponent name="c"><ActiveComp name="ghost"/></CompositeComponent></Architecture>`,
	}
	for name, doc := range cases {
		if _, err := DecodeString(doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"600KB": 600 << 10,
		"28KB":  28 << 10,
		"4MB":   4 << 20,
		"1GB":   1 << 30,
		"512":   512,
		"512B":  512,
		" 2KB ": 2048,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "KB", "-1KB", "x", "12.5KB"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestFormatSizeRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 512, 1024, 28 << 10, 600 << 10, 4 << 20, 1 << 30, 1023, 1025} {
		got, err := ParseSize(FormatSize(n))
		if err != nil || got != n {
			t.Errorf("round trip %d -> %q -> %d, %v", n, FormatSize(n), got, err)
		}
	}
}

// TestDecodeRefusesHugeBufferSize: a bufferSize above the binding
// bound fails at decode, naming the binding, instead of at deploy.
func TestDecodeRefusesHugeBufferSize(t *testing.T) {
	doc := strings.Replace(contractADL, `bufferSize="8"`, `bufferSize="1125899906842624"`, 1)
	_, err := DecodeString(doc)
	if err == nil || !strings.Contains(err.Error(), "client.out -> server.in") || !strings.Contains(err.Error(), "buffer size") {
		t.Fatalf("decode = %v, want a buffer-size error naming the binding", err)
	}
}

func TestDecodeFileMissing(t *testing.T) {
	if _, err := DecodeFile("/nonexistent/arch.xml"); err == nil {
		t.Fatal("missing file accepted")
	}
}
