//! `node-session`: both endpoints of `rfc_node::run_session` on two
//! threads over one Unix socketpair.
//!
//! The real wire runs here — the session layer, the packet layer, the
//! codec and the kernel socket — with no simulation engine.
//!
//! Both endpoints run pinned to one CPU. The session is lockstep, one
//! socket round trip per tick, so with an endpoint on each CPU every tick
//! waits for the kernel (or, in a VM, the host) to wake the other CPU:
//! that wake-up, not the program, then set the rate, and it swung from run
//! to run by up to 2×.

use crate::measure::{median, repeat_for, timed, PinnedToOneCpu};
use crate::{sub_seed, Pass, SUB_SEEDS};
use rfc_node::{encode_packet, read_packet, run_session, NodeParams, SessionReport, Side};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Agents across both endpoints.
    pub n: usize,
    /// Async tick-budget multiplier.
    pub slack: usize,
}

impl Spec {
    /// The benchmark size: n = 1 024, slack 3 (368 640 ticks).
    pub fn standard() -> Spec {
        Spec { n: 1_024, slack: 3 }
    }

    /// The session parameters of unit `i` (see [`SUB_SEEDS`]).
    pub fn params(&self, seed: u64, i: usize) -> NodeParams {
        NodeParams {
            n: self.n,
            gamma: 3.0,
            seed: sub_seed(seed, i),
            slack: self.slack,
        }
    }

    /// Run sessions for about `budget`, cycling through [`SUB_SEEDS`]
    /// sub-seeds (always at least one round of them).
    pub fn run(&self, seed: u64, budget: Duration, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut sessions: Vec<Session> = Vec::new();
        let pinned = PinnedToOneCpu::here();
        repeat_for(budget, SUB_SEEDS, |i| {
            match session(&self.params(seed, i), traced) {
                Ok(mut s) => {
                    let first = sessions.get(i % SUB_SEEDS).map(|f| &f.low);
                    pass.check(check_session(&s.low, &s.high, first));
                    if i > 0 {
                        s.captured = [Vec::new(), Vec::new()];
                    }
                    sessions.push(s);
                }
                Err(e) => pass.check(Err(format!("session failed: {e}"))),
            }
        });
        pass.named.push((
            "endpoints_on_one_cpu",
            f64::from(u8::from(pinned.is_some())),
            "bool",
        ));
        drop(pinned);
        if sessions.len() < SUB_SEEDS {
            return pass;
        }
        let first = &sessions[..SUB_SEEDS];
        let sum = |f: &dyn Fn(&Session) -> u64| first.iter().map(f).sum::<u64>() as f64;
        let ticks = sum(&|s| s.low.ticks);
        let bytes = sum(&|s| s.low.bytes_sent + s.high.bytes_sent);
        let each =
            |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
        pass.unit_rates = sessions
            .iter()
            .map(|s| s.low.ticks as f64 / s.wall.as_secs_f64())
            .collect();
        let rate = median(&pass.unit_rates);
        pass.set("units_per_s", rate);
        pass.set("setup_s", each(&|s| s.setup.as_secs_f64()));
        pass.set(
            "net.bits_per_agent",
            8.0 * bytes / (SUB_SEEDS * self.n) as f64,
        );
        pass.set("node.wire_bytes_per_tick", bytes / ticks);
        pass.named.push(("ticks_per_s", rate, "1/s"));
        pass.named
            .push(("wire_bytes_per_tick", bytes / ticks, "B/tick"));
        if !traced {
            return pass;
        }
        let calls = |f: &dyn Fn(&IoTrace) -> u64| sum(&|s| f(&s.io[0]) + f(&s.io[1])) / ticks;
        pass.set("node.reads_per_tick", calls(&|io| io.reads));
        pass.set("node.writes_per_tick", calls(&|io| io.writes));
        pass.set(
            "node.read_wait_s",
            each(&|s| (s.io[0].read_wait + s.io[1].read_wait).as_secs_f64()),
        );
        pass.set(
            "node.write_s",
            each(&|s| (s.io[0].write + s.io[1].write).as_secs_f64()),
        );
        let mut total = Replay::default();
        for side in &sessions[0].captured {
            let verdict = replay(side).map(|r| total.add(&r));
            pass.check(verdict.map_err(|e| format!("replay of a captured stream failed: {e}")));
        }
        let packets = total.packets.max(1) as f64;
        pass.set("wire.packets", total.packets as f64);
        pass.set(
            "wire.decode_ns_per_packet",
            total.decode.as_nanos() as f64 / packets,
        );
        pass.set(
            "wire.encode_ns_per_packet",
            total.encode.as_nanos() as f64 / packets,
        );
        pass
    }
}

/// One session's reports and clocks.
pub struct Session {
    /// The serve (Low) endpoint's report.
    pub low: SessionReport,
    /// The join (High) endpoint's report.
    pub high: SessionReport,
    /// Session start to both endpoints done.
    pub wall: Duration,
    /// Session start to the Low side's first byte written.
    pub setup: Duration,
    /// Per side (Low, High): socket call counts and clocks (traced).
    pub io: [IoTrace; 2],
    /// Per side: every byte it wrote (traced).
    pub captured: [Vec<u8>; 2],
}

/// Socket calls one endpoint made.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoTrace {
    /// `read` calls.
    pub reads: u64,
    /// `write` calls.
    pub writes: u64,
    /// Time blocked in or doing `read` (includes waiting for the peer).
    pub read_wait: Duration,
    /// Time in `write`.
    pub write: Duration,
}

/// The socket as the session sees it: records when the first byte goes
/// out and, when traced, counts and times every call and keeps a copy
/// of the bytes written.
struct Probe {
    sock: UnixStream,
    first_write: Option<Instant>,
    traced: bool,
    io: IoTrace,
    written: Vec<u8>,
}

impl Probe {
    fn new(sock: UnixStream, traced: bool) -> Probe {
        Probe {
            sock,
            first_write: None,
            traced,
            io: IoTrace::default(),
            written: Vec::new(),
        }
    }
}

impl Read for Probe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.traced {
            return self.sock.read(buf);
        }
        let (r, t) = timed(|| self.sock.read(buf));
        self.io.reads += 1;
        self.io.read_wait += t;
        r
    }
}

impl Write for Probe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.first_write.get_or_insert_with(Instant::now);
        if !self.traced {
            return self.sock.write(buf);
        }
        let (r, t) = timed(|| self.sock.write(buf));
        self.io.writes += 1;
        self.io.write += t;
        if let Ok(k) = r {
            self.written.extend_from_slice(&buf[..k]);
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sock.flush()
    }
}

/// Run one session: High on a scoped thread, Low on this one. Each side
/// shuts the socket when it finishes, so a failing side never leaves
/// its peer blocked.
pub fn session(np: &NodeParams, traced: bool) -> io::Result<Session> {
    let (a, b) = UnixStream::pair()?;
    let start = Instant::now();
    let side = |sock: UnixStream, side: Side| {
        let mut probe = Probe::new(sock, traced);
        let report = run_session(&mut probe, side, np);
        // Best effort: the peer may have shut the socket already.
        let _ = probe.sock.shutdown(Shutdown::Both);
        (report, probe)
    };
    let ((low, lp), (high, hp)) = std::thread::scope(|s| {
        let high = s.spawn(|| side(b, Side::High));
        let low = side(a, Side::Low);
        (low, high.join().expect("the High endpoint thread panicked"))
    });
    let wall = start.elapsed();
    Ok(Session {
        low: low?,
        high: high?,
        wall,
        setup: lp.first_write.map_or(wall, |t| t - start),
        io: [lp.io, hp.io],
        captured: [lp.written, hp.written],
    })
}

/// A session is correct when both endpoints report the same outcome and
/// digest, the outcome is Consensus, and it repeats the pass's first
/// session on the same sub-seed.
pub fn check_session(
    low: &SessionReport,
    high: &SessionReport,
    first: Option<&SessionReport>,
) -> Result<(), String> {
    if low.outcome != high.outcome || low.digest != high.digest {
        return Err(format!(
            "endpoints disagree: {:?}/{:016x} vs {:?}/{:016x}",
            low.outcome, low.digest, high.outcome, high.digest
        ));
    }
    if !low.outcome.is_consensus() {
        return Err(format!("session ended in {:?}, not Consensus", low.outcome));
    }
    match first {
        Some(f)
            if (f.digest, f.bytes_sent, f.msgs_sent)
                != (low.digest, low.bytes_sent, low.msgs_sent) =>
        {
            Err("session differs from the pass's first session on the same sub-seed".into())
        }
        _ => Ok(()),
    }
}

/// Packet-layer work to decode and re-encode a captured byte stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Packets in the stream.
    pub packets: u64,
    /// Total `read_packet` time.
    pub decode: Duration,
    /// Total `encode_packet` time.
    pub encode: Duration,
}

impl Replay {
    fn add(&mut self, o: &Replay) {
        self.packets += o.packets;
        self.decode += o.decode;
        self.encode += o.encode;
    }
}

/// Packets decoded (then re-encoded) per timed chunk.
const CHUNK: usize = 4096;

/// Decode `stream` with `read_packet` from memory and re-encode every
/// packet with `encode_packet`, in timed chunks. Errors if the stream
/// does not parse, or re-encoding does not reproduce it byte for byte.
pub fn replay(stream: &[u8]) -> io::Result<Replay> {
    let mut r = Replay::default();
    let mut rest = stream;
    let mut packets = Vec::with_capacity(CHUNK);
    let mut out = Vec::new();
    while !rest.is_empty() {
        let before = rest;
        let t = Instant::now();
        while packets.len() < CHUNK && !rest.is_empty() {
            packets.push(read_packet(&mut rest)?);
        }
        r.decode += t.elapsed();
        out.clear();
        let t = Instant::now();
        for p in &packets {
            encode_packet(p, &mut out);
        }
        r.encode += t.elapsed();
        if out[..] != before[..before.len() - rest.len()] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "re-encoding changed the bytes",
            ));
        }
        r.packets += packets.len() as u64;
        packets.clear();
    }
    Ok(r)
}
