package udptransport

import (
	"net"
	"strings"
	"testing"

	"alpha/internal/udpio"
)

// TestOffloadDowngradeWarning covers the fail-fast probing contract: a node
// whose kernel refuses the default engine's UDP_SEGMENT/UDP_GRO probe gets
// exactly one human-readable warning and keeps running on the batched
// engine, while a pinned engine or a platform with no probe stays silent.
func TestOffloadDowngradeWarning(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	offload := udpio.Wrap(pc, 8, nil)
	batched := udpio.WrapBatched(pc, 8, nil)
	portable := udpio.Portable(pc, nil)
	if !batched.Batched() {
		t.Skip("no batched engine on this platform")
	}

	cases := []struct {
		name   string
		opts   IOOptions
		engine udpio.Conn
		warn   bool
	}{
		// The default engine with no probe to refuse: the portable shim
		// off Linux.
		{"nothing requested", IOOptions{}, portable, false},
		{"all granted", IOOptions{}, offload, false},
		// The probe was refused, so the default ladder landed on batched.
		{"all denied", IOOptions{}, batched, true},
		{"force-no-offload is silent", IOOptions{Engine: EngineBatched}, batched, false},
		{"force-portable is silent", IOOptions{Engine: EnginePortable}, portable, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.engine == offload && !udpio.Offloaded(offload) {
				t.Skip("kernel lacks UDP_SEGMENT/UDP_GRO")
			}
			w := tc.opts.downgradeWarning(tc.engine)
			if !tc.warn {
				if w != "" {
					t.Fatalf("unexpected warning %q", w)
				}
				return
			}
			for _, sub := range []string{"UDP_SEGMENT", "UDP_GRO", "batched engine"} {
				if !strings.Contains(w, sub) {
					t.Errorf("warning %q missing %q", w, sub)
				}
			}
		})
	}
}

// TestEngineSelectorPins: each Engine value builds exactly its engine. The
// default probes offload (and warns only when the probe is refused); the
// batched and portable pins bypass the probe and never warn.
func TestEngineSelectorPins(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	def := IOOptions{}.wrap(pc, nil)
	if def.Batched() && !udpio.Offloaded(def) && (IOOptions{}).downgradeWarning(def) == "" {
		t.Fatal("default engine fell back to batched without a downgrade warning")
	}
	if udpio.Offloaded(def) && (IOOptions{}).downgradeWarning(def) != "" {
		t.Fatal("default engine warned although offload was granted")
	}

	bopts := IOOptions{Engine: EngineBatched}
	b := bopts.wrap(pc, nil)
	if udpio.Offloaded(b) {
		t.Fatal("EngineBatched returned the offload engine")
	}
	if w := bopts.downgradeWarning(b); w != "" {
		t.Fatalf("explicit batched pin must be silent, got %q", w)
	}

	popts := IOOptions{Engine: EnginePortable}
	p := popts.wrap(pc, nil)
	if p.Batched() || udpio.Offloaded(p) {
		t.Fatal("EnginePortable must pin the portable engine")
	}
	if w := popts.downgradeWarning(p); w != "" {
		t.Fatalf("explicit portable pin must be silent, got %q", w)
	}
}
