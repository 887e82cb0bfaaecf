//go:build linux && (amd64 || arm64)

// The segmentation-offload engine tier: UDP GSO sends (one kernel traversal
// per same-size run), UDP GRO receives (split coalesced datagrams back into
// segments), and an opt-in MSG_ZEROCOPY send path with an errqueue
// completion reaper. Everything is probed per feature at socket setup and
// self-disables at runtime when the kernel pushes back, so the tier only
// ever narrows toward the plain batched engine it embeds.

package udpio

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"alpha/internal/telemetry"
)

// Linux UAPI numbers the syscall package predates. All frozen ABI.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: cmsg carries the uint16 segment size
	udpGRO     = 104 // UDP_GRO: setsockopt enables coalesced delivery
	soZeroCopy = 60  // SO_ZEROCOPY at SOL_SOCKET

	msgZeroCopy = 0x4000000 // MSG_ZEROCOPY send flag
	msgErrqueue = 0x2000    // MSG_ERRQUEUE recv flag

	solIP       = 0  // SOL_IP: errqueue cmsg level on IPv4 sockets
	ipRecvErr   = 11 // IP_RECVERR cmsg type
	solIPv6     = 41 // SOL_IPV6
	ipv6RecvErr = 25 // IPV6_RECVERR

	soEEOriginZerocopy     = 5 // sock_extended_err.ee_origin
	soEECodeZerocopyCopied = 1 // ee_code: the kernel copied after all
)

// GSO packing limits: the kernel refuses more than 64 segments per send,
// and the packed run must still fit one UDP payload.
const (
	gsoMaxSegs  = 64
	gsoMaxBytes = 65507
)

// cmsgSpace is CMSG_SPACE for both offload cmsgs on the supported 64-bit
// ABIs: align(sizeof cmsghdr)=16 plus align(2 or 4 data bytes)=8.
const cmsgSpace = 24

// groSlot sizes one coalesced-receive slab slot: a maximally coalesced
// datagram is one full UDP payload.
const groSlot = 64 << 10

// Zero-copy send tuning. The slab ring bounds in-flight completions; below
// zcMinBytes page pinning costs more than the copy it avoids.
const (
	zcSlots      = 16
	zcSlotSize   = 64 << 10
	zcMinBytes   = 4096
	zcMaxENOBUFS = 3 // consecutive ENOBUFS before the path disables itself
	zcMaxCopied  = 8 // consecutive copied completions before giving up
)

var (
	errOffloadUnsupported = errors.New("udpio: no requested offload feature supported")
	errNoProgress         = errors.New("udpio: sendmmsg made no progress")
	// errGSOFallback is internal: GSO sends were rejected at runtime, the
	// burst was not transmitted, and the caller must re-send through the
	// plain batched path.
	errGSOFallback = errors.New("udpio: gso rejected, falling back")
)

// sockExtendedErr mirrors struct sock_extended_err from <linux/errqueue.h>;
// zero-copy completions carry ee_origin SO_EE_ORIGIN_ZEROCOPY and the
// completed id range in [ee_info, ee_data].
type sockExtendedErr struct {
	Errno  uint32
	Origin uint8
	Type   uint8
	Code   uint8
	Pad    uint8
	Info   uint32
	Data   uint32
}

// groPend is one received (possibly coalesced) datagram waiting in the
// receive slab to be handed out segment by segment.
type groPend struct {
	off, end int // live window into rslab
	seg      int // segment size from the UDP_GRO cmsg; 0 = not coalesced
	addr     net.Addr
}

// offloadConn layers GSO/GRO/zero-copy over the batched engine it embeds,
// reusing its header/iovec/sockaddr scratch, its locks, and its address
// intern cache. Features degrade independently: a runtime rejection turns
// just that feature off and the rest keep running.
type offloadConn struct {
	*batchConn
	st OffloadStatus

	// GSO send state (wmu). gsoOn is atomic so a runtime EINVAL can turn
	// the feature off without widening the lock.
	gsoOn uint32
	wctrl []byte // one cmsgSpace-sized UDP_SEGMENT slot per header
	wruns []int  // datagrams packed per header in the burst being built

	// GRO receive state (rmu): a small slab of full-payload slots the
	// kernel fills, split lazily into caller buffers.
	gro       bool
	groN      int
	rslab     []byte
	gctrl     []byte
	rpends    []groPend
	rpendHead int
	rpendN    int

	// Zero-copy send state. Ids are sequential per socket: issued under
	// wmu, completed by the reaper; slot index is id mod zcSlots, so
	// capacity gating on issued-completed keeps slot reuse safe.
	zcOn        uint32 // atomic
	zcIssued    uint32 // atomic (written under wmu)
	zcCompleted uint32 // atomic (written by the reaper)
	zcCopiedRun uint32 // atomic: consecutive copied completions
	zcENOBUFS   int    // under wmu
	zcSlab      []byte
	zcWriteFn   func(fd uintptr) bool
	zcKick      chan struct{}
	zcDone      chan struct{}
	zcPad       [64]byte
	zcOOB       [256]byte
	closeOnce   sync.Once
}

// newOffloadConn builds the offload tier over uc, probing each requested
// feature with a setsockopt and keeping whatever sticks. It fails (so
// WrapOffload can fall back to the batched engine) only when nothing was
// granted or the socket is unusable.
func newOffloadConn(uc *net.UDPConn, batch int, opts OffloadOptions, m *telemetry.IOMetrics) (Conn, OffloadStatus, error) {
	bc, err := newBatchConn(uc, batch, m)
	if err != nil {
		return nil, OffloadStatus{}, err
	}
	var st OffloadStatus
	cerr := bc.rc.Control(func(fd uintptr) {
		if opts.GSO {
			// Value 0 clears any socket-wide segment size (runs are tagged
			// per send via cmsg); success proves kernel support (≥ 4.18).
			st.GSO = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		}
		if opts.GRO {
			st.GRO = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
		}
		if opts.ZeroCopy {
			st.ZeroCopy = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soZeroCopy, 1) == nil
		}
	})
	if cerr != nil {
		return nil, OffloadStatus{}, cerr
	}
	if !st.GSO && !st.GRO && !st.ZeroCopy {
		return nil, OffloadStatus{}, errOffloadUnsupported
	}
	c := &offloadConn{batchConn: bc, st: st}
	if st.GSO || st.ZeroCopy {
		c.wruns = make([]int, len(bc.whdrs))
	}
	if st.GSO {
		atomic.StoreUint32(&c.gsoOn, 1)
		c.wctrl = make([]byte, len(bc.whdrs)*cmsgSpace)
	}
	if st.GRO {
		c.gro = true
		n := batch / 8
		if n < 1 {
			n = 1
		}
		if n > 8 {
			n = 8
		}
		c.groN = n
		c.rslab = make([]byte, n*groSlot)
		c.gctrl = make([]byte, n*cmsgSpace)
		c.rpends = make([]groPend, n)
	}
	if st.ZeroCopy {
		atomic.StoreUint32(&c.zcOn, 1)
		c.zcSlab = make([]byte, zcSlots*zcSlotSize)
		c.zcWriteFn = c.zcSendmmsg
		c.zcKick = make(chan struct{}, 1)
		c.zcDone = make(chan struct{})
		go c.reapLoop()
	}
	return c, st, nil
}

// Offload reports the feature set granted at setup (runtime self-disables
// are not reflected here; they only narrow behavior, not capability).
func (c *offloadConn) Offload() OffloadStatus { return c.st }

// Close stops the zero-copy completion reaper. The underlying socket stays
// open — the engine never owns it.
func (c *offloadConn) Close() error {
	c.closeOnce.Do(func() {
		if c.zcDone != nil {
			close(c.zcDone)
		}
	})
	return nil
}

// zcSendmmsg is the MSG_ZEROCOPY variant of the sendmmsg RawConn callback.
func (c *offloadConn) zcSendmmsg(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&c.whdrs[0])), uintptr(c.wn),
		syscall.MSG_DONTWAIT|msgZeroCopy, 0, 0)
	switch errno {
	case 0:
		c.wgot = int(r)
	case syscall.EAGAIN, syscall.EINTR:
		return false
	default:
		c.werrno = errno
	}
	return true
}

// WriteBatch sends ms through the offload path while GSO or zero-copy is
// live, and otherwise delegates straight to the batched engine.
//
//alpha:hotpath
func (c *offloadConn) WriteBatch(ms []Message) (int, error) {
	if atomic.LoadUint32(&c.gsoOn) == 0 && atomic.LoadUint32(&c.zcOn) == 0 {
		return c.batchConn.WriteBatch(ms)
	}
	c.wmu.Lock()
	sent := 0
	for sent < len(ms) {
		n, err := c.sendBurst(ms[sent:])
		sent += n
		if err == errGSOFallback {
			// The kernel rejected UDP_SEGMENT at send time (offload probe
			// passed but the path refuses, e.g. some virtual devices).
			// Nothing from this burst was transmitted; re-send plainly.
			c.wmu.Unlock()
			m, merr := c.batchConn.WriteBatch(ms[sent:])
			return sent + m, merr
		}
		if err != nil {
			c.wmu.Unlock()
			return sent, err
		}
	}
	c.wmu.Unlock()
	return sent, nil
}

// sendBurst packs one sendmmsg burst from the front of ms — GSO runs of
// same-destination, equal-size datagrams become single headers — and sends
// it, optionally through the zero-copy slab ring. Returns datagrams
// consumed. Caller holds wmu.
//
//alpha:hotpath
func (c *offloadConn) sendBurst(ms []Message) (int, error) {
	gso := atomic.LoadUint32(&c.gsoOn) == 1
	nh, iv, used, bytes := 0, 0, 0, 0
	anyGSO := false
	for used < len(ms) && nh < len(c.whdrs) && iv < len(c.wiovs) {
		// A run: consecutive messages to the same destination with equal
		// size; one smaller tail segment may close it (kernel rule).
		sz := ms[used].N
		run := 1
		if gso && sz > 0 && sz <= gsoMaxBytes {
			maxRun := len(c.wiovs) - iv
			if maxRun > gsoMaxSegs {
				maxRun = gsoMaxSegs
			}
			if maxRun > len(ms)-used {
				maxRun = len(ms) - used
			}
			total := sz
			for run < maxRun {
				nxt := &ms[used+run]
				if nxt.Addr != ms[used].Addr || nxt.N <= 0 || nxt.N > sz || total+nxt.N > gsoMaxBytes {
					break
				}
				total += nxt.N
				run++
				if nxt.N < sz {
					break
				}
			}
		}
		nl, err := c.destAddr(ms[used].Addr, &c.wnames[nh])
		if err != nil {
			if nh > 0 {
				break // flush what is packed; the retry surfaces the error
			}
			return 0, err
		}
		h := &c.whdrs[nh].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.wnames[nh]))
		h.Namelen = nl
		h.Iov = &c.wiovs[iv]
		h.Iovlen = uint64(run)
		h.Control = nil
		h.Controllen = 0
		h.Flags = 0
		c.whdrs[nh].n = 0
		for k := 0; k < run; k++ {
			msg := &ms[used+k]
			if msg.N > 0 {
				c.wiovs[iv+k].Base = &msg.Buf[0]
			} else {
				c.wiovs[iv+k].Base = nil
			}
			c.wiovs[iv+k].SetLen(msg.N)
			bytes += msg.N
		}
		if run > 1 {
			ctrl := c.wctrl[nh*cmsgSpace : nh*cmsgSpace+cmsgSpace]
			cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			cm.Level = solUDP
			cm.Type = udpSegment
			cm.Len = uint64(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = uint16(sz)
			h.Control = &ctrl[0]
			h.Controllen = cmsgSpace
			anyGSO = true
		}
		c.wruns[nh] = run
		nh++
		iv += run
		used += run
	}
	if nh == 0 {
		return 0, nil
	}

	// Zero-copy pass: MSG_ZEROCOPY pins the pages until the completion
	// arrives, but §5e promises callers their buffers back at return — so
	// the payload moves into stable ring slots first. Worth it only for
	// bursts big enough to beat the copy.
	zc := false
	if atomic.LoadUint32(&c.zcOn) == 1 && bytes >= zcMinBytes {
		free := zcSlots - int(atomic.LoadUint32(&c.zcIssued)-atomic.LoadUint32(&c.zcCompleted))
		if free >= nh {
			zc = true
			ivc := 0
			for i := 0; i < nh; i++ {
				slot := int(atomic.LoadUint32(&c.zcIssued)+uint32(i)) % zcSlots
				dst := c.zcSlab[slot*zcSlotSize : slot*zcSlotSize+zcSlotSize]
				n := 0
				for k := 0; k < c.wruns[i]; k++ {
					iov := &c.wiovs[ivc+k]
					if iov.Base != nil {
						n += copy(dst[n:], unsafe.Slice(iov.Base, int(iov.Len)))
					}
				}
				h := &c.whdrs[i].hdr
				if n > 0 {
					c.wiovs[ivc].Base = &dst[0]
				} else {
					c.wiovs[ivc].Base = nil
				}
				c.wiovs[ivc].SetLen(n)
				h.Iov = &c.wiovs[ivc]
				h.Iovlen = 1
				ivc += c.wruns[i]
			}
		} else {
			c.m.NoteZeroCopyDowngrade()
		}
	}

	c.wn, c.wgot, c.werrno = nh, 0, nil
	fn := c.writeFn
	if zc {
		fn = c.zcWriteFn
	}
	if err := c.rc.Write(fn); err != nil {
		return 0, err
	}
	if c.werrno == syscall.ENOBUFS && zc {
		// Page-pinning budget exhausted. The slots already hold stable
		// copies, so the same headers re-send plainly; repeated ENOBUFS
		// disables the path for good.
		c.m.NoteZeroCopyDowngrade()
		c.zcENOBUFS++
		if c.zcENOBUFS >= zcMaxENOBUFS {
			atomic.StoreUint32(&c.zcOn, 0)
		}
		zc = false
		c.wgot, c.werrno = 0, nil
		if err := c.rc.Write(c.writeFn); err != nil {
			return 0, err
		}
	} else if zc {
		c.zcENOBUFS = 0
	}
	if c.werrno != nil {
		if anyGSO && (c.werrno == syscall.EINVAL || c.werrno == syscall.EIO ||
			c.werrno == syscall.EOPNOTSUPP || c.werrno == syscall.EMSGSIZE) {
			atomic.StoreUint32(&c.gsoOn, 0)
			return 0, errGSOFallback
		}
		return 0, c.werrno
	}
	got := c.wgot
	if got == 0 {
		return 0, errNoProgress
	}
	dgrams := 0
	for i := 0; i < got; i++ {
		dgrams += c.wruns[i]
		if c.wruns[i] > 1 {
			c.m.NoteGSOWrite(c.wruns[i])
		}
	}
	c.m.NoteWrite(dgrams)
	if zc {
		atomic.AddUint32(&c.zcIssued, uint32(got))
		for i := 0; i < got; i++ {
			c.m.NoteZeroCopySend()
		}
		select {
		case c.zcKick <- struct{}{}:
		default:
		}
	}
	return dgrams, nil
}

// ReadBatch serves segments split out of coalesced datagrams while GRO is
// live, refilling the receive slab with one recvmmsg when the pending
// queue drains; without GRO it is the plain batched read.
//
//alpha:hotpath
func (c *offloadConn) ReadBatch(ms []Message) (int, error) {
	if !c.gro {
		return c.batchConn.ReadBatch(ms)
	}
	if len(ms) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		if out := c.servePend(ms); out > 0 {
			return out, nil
		}
		if err := c.fillPend(); err != nil {
			return 0, err
		}
	}
}

// servePend copies pending segments into caller buffers: seg-sized chunks
// of each coalesced datagram (the last may be smaller), whole datagrams
// when not coalesced. Caller holds rmu.
//
//alpha:hotpath
func (c *offloadConn) servePend(ms []Message) int {
	out := 0
	for c.rpendHead < c.rpendN && out < len(ms) {
		p := &c.rpends[c.rpendHead]
		chunk := p.end - p.off
		if p.seg > 0 && chunk > p.seg {
			chunk = p.seg
		}
		n := copy(ms[out].Buf, c.rslab[p.off:p.off+chunk])
		ms[out].N, ms[out].Addr = n, p.addr
		p.off += chunk
		if p.off >= p.end {
			c.rpendHead++
		}
		out++
	}
	return out
}

// fillPend issues one recvmmsg into the GRO slab and queues every received
// datagram (split metadata included) for servePend. Caller holds rmu.
//
//alpha:hotpath
func (c *offloadConn) fillPend() error {
	n := c.groN
	for i := 0; i < n; i++ {
		base := i * groSlot
		c.riovs[i].Base = &c.rslab[base]
		c.riovs[i].SetLen(groSlot)
		h := &c.rhdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.rnames[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &c.riovs[i]
		h.Iovlen = 1
		h.Control = &c.gctrl[i*cmsgSpace]
		h.Controllen = cmsgSpace
		h.Flags = 0
		c.rhdrs[i].n = 0
	}
	c.rn, c.rgot, c.rerrno = n, 0, nil
	if err := c.rc.Read(c.readFn); err != nil {
		return err
	}
	if c.rerrno != nil {
		return c.rerrno
	}
	got := c.rgot
	total := 0
	for i := 0; i < got; i++ {
		dl := int(c.rhdrs[i].n)
		seg := c.groSegSize(i)
		base := i * groSlot
		c.rpends[i] = groPend{off: base, end: base + dl, seg: seg, addr: c.sourceAddr(&c.rnames[i])}
		segs := 1
		if seg > 0 && dl > seg {
			segs = (dl + seg - 1) / seg
			c.m.NoteGRORead(segs)
		}
		total += segs
	}
	c.rpendHead, c.rpendN = 0, got
	if got > 0 {
		c.m.NoteRead(total)
	}
	return nil
}

// groSegSize extracts the UDP_GRO segment size the kernel attached to
// header i, or 0 when the datagram arrived un-coalesced.
//
//alpha:hotpath
func (c *offloadConn) groSegSize(i int) int {
	h := &c.rhdrs[i].hdr
	if int(h.Controllen) < syscall.CmsgLen(4) {
		return 0
	}
	ctrl := c.gctrl[i*cmsgSpace:]
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	if cm.Level == solUDP && cm.Type == udpGRO && int(cm.Len) >= syscall.CmsgLen(4) {
		return int(*(*int32)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])))
	}
	return 0
}

// reapLoop drains MSG_ZEROCOPY completion notifications off the error
// queue. It parks on zcKick between bursts and polls briefly while
// completions are outstanding (notifications trail the send by the NIC's
// actual transmit). Exits on Close or when the socket dies under it.
func (c *offloadConn) reapLoop() {
	for {
		select {
		case <-c.zcDone:
			return
		case <-c.zcKick:
		}
		for {
			n, err := c.reap()
			if err != nil {
				return
			}
			if atomic.LoadUint32(&c.zcCompleted) >= atomic.LoadUint32(&c.zcIssued) {
				break
			}
			if n == 0 {
				select {
				case <-c.zcDone:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
		}
	}
}

// reap drains the errqueue until EAGAIN, returning completions processed.
func (c *offloadConn) reap() (int, error) {
	reaped := 0
	var rerr error
	err := c.rc.Control(func(fd uintptr) {
		for {
			_, oobn, _, _, err := syscall.Recvmsg(int(fd), c.zcPad[:], c.zcOOB[:], msgErrqueue|syscall.MSG_DONTWAIT)
			if err != nil {
				if err != syscall.EAGAIN && err != syscall.EINTR {
					rerr = err
				}
				return
			}
			reaped += c.parseCompletions(c.zcOOB[:oobn])
		}
	})
	if err != nil {
		return reaped, err
	}
	return reaped, rerr
}

// parseCompletions walks the raw cmsg block of one errqueue message and
// credits every SO_EE_ORIGIN_ZEROCOPY id range back to the slab ring. A
// run of completions the kernel had to copy anyway (ee_code COPIED —
// loopback always does) disables the path: it is pure overhead there.
func (c *offloadConn) parseCompletions(oob []byte) int {
	done := 0
	for len(oob) >= syscall.SizeofCmsghdr {
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(cm.Len)
		if l < syscall.SizeofCmsghdr || l > len(oob) {
			break
		}
		isErr := (cm.Level == solIP && cm.Type == ipRecvErr) ||
			(cm.Level == solIPv6 && cm.Type == ipv6RecvErr)
		if isErr && l >= syscall.CmsgLen(0)+int(unsafe.Sizeof(sockExtendedErr{})) {
			ee := (*sockExtendedErr)(unsafe.Pointer(&oob[syscall.CmsgLen(0)]))
			if ee.Origin == soEEOriginZerocopy && ee.Data >= ee.Info {
				n := int(ee.Data - ee.Info + 1)
				copied := ee.Code == soEECodeZerocopyCopied
				atomic.AddUint32(&c.zcCompleted, uint32(n))
				for i := 0; i < n; i++ {
					c.m.NoteZeroCopyCompletion(copied)
				}
				if copied {
					run := atomic.AddUint32(&c.zcCopiedRun, uint32(n))
					if run >= zcMaxCopied && atomic.CompareAndSwapUint32(&c.zcOn, 1, 0) {
						c.m.NoteZeroCopyDowngrade()
					}
				} else {
					atomic.StoreUint32(&c.zcCopiedRun, 0)
				}
				done += n
			}
		}
		adv := (l + 7) &^ 7 // CMSG_ALIGN on 64-bit
		if adv <= 0 || adv > len(oob) {
			break
		}
		oob = oob[adv:]
	}
	return done
}
