//! The `srl serve` child process and the load generator that drives it.
//!
//! The generator is one thread with non-blocking sockets multiplexed by
//! `ppoll(2)`: requests are pipelined per connection, answers are matched
//! to requests by their echoed `id`, and an open-loop request is timed from
//! when it was due, not from when it was written.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Req, Workload};

/// A running `srl serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    /// The load generator's connections, opened by the first `drive` and
    /// kept, so set-up and load are served by the same session threads.
    conns: Vec<Conn>,
}

impl Server {
    /// Starts `srl serve` and waits for its `listening on` line.
    pub fn spawn(srl: &Path, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(srl)
            .arg("serve")
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", srl.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = Server {
            child,
            addr: String::new(),
            conns: Vec::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!(
                "srl serve did not report its address (got {line:?})"
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// utime + stime of the whole server process, in µs.
    pub fn cpu_us(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // The command name may hold spaces; fields resume after its `)`.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        // utime and stime are fields 14 and 15 of stat(5), 11 and 12 here.
        (ticks(11) + ticks(12)) * 1e6 / clock_ticks_per_second()
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and reads no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until a socket is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs (same layout as `struct pollfd`), `ts` outlives the
    // call, and a null signal mask is documented as "leave the mask alone".
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// What happened to one request.
#[derive(Clone, Copy, Default)]
pub struct Record {
    /// µs from the start of the run: due (open loop) or sent (closed loop).
    pub due_us: f64,
    pub sent_us: f64,
    pub done_us: f64,
    pub answered: bool,
    pub ok: bool,
    /// Server CPU µs when the answer was read (closed loop only).
    pub cpu_us: f64,
}

impl Record {
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.due_us
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    /// (index into the run, end offset of its bytes in `out`)
    unsent: VecDeque<(usize, usize)>,
    inbuf: Vec<u8>,
    scanned: usize,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            unsent: VecDeque::new(),
            inbuf: Vec::new(),
            scanned: 0,
        })
    }

    fn push(&mut self, index: usize, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.unsent.push_back((index, self.out.len()));
    }

    /// Writes what the socket takes; returns the indices now fully sent.
    fn flush(&mut self, sent: &mut Vec<usize>) -> Result<(), String> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        while let Some(&(index, end)) = self.unsent.front() {
            if end > self.written {
                break;
            }
            sent.push(index);
            self.unsent.pop_front();
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
            self.unsent.clear();
        }
        Ok(())
    }

    /// Reads what is available; returns complete response lines.
    fn receive(&mut self, lines: &mut Vec<String>) -> Result<(), String> {
        let mut chunk = [0u8; 65536];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let mut start = 0;
        while let Some(pos) = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + pos;
            lines.push(String::from_utf8_lossy(&self.inbuf[start..end]).into_owned());
            start = end + 1;
            self.scanned = start;
        }
        self.scanned = self.inbuf.len();
        self.inbuf.drain(..start);
        self.scanned -= start;
        Ok(())
    }
}

/// The echoed id at the end of a response body.
fn echoed_id(body: &str) -> Option<u64> {
    let at = body.rfind("\"id\": ")?;
    body[at + 6..].trim_end_matches('}').parse().ok()
}

/// The outcome of driving a list of requests.
pub struct Run {
    pub records: Vec<Record>,
    /// The first few mismatches, for the report.
    pub errors: Vec<String>,
    /// Largest number of requests due but not yet answered.
    pub backlog_max: usize,
    /// Server CPU µs over the measured window and the window's length.
    pub cpu_us: f64,
    pub window_us: f64,
}

/// How the requests of a run are released.
pub enum Pace {
    /// At `req.due_us` (shifted by `offset_us`); CPU is sampled from
    /// `measure_from_us` on.
    Open {
        offset_us: u64,
        measure_from_us: f64,
    },
    /// Each request after the previous answer, until `stop_after_us`; CPU is
    /// sampled from `measure_from_us` on.
    Closed {
        stop_after_us: f64,
        measure_from_us: f64,
    },
    /// One request at a time, all of them.
    Sequential,
}

/// Sends `reqs` (ids `first_id ..`) to `server` and checks every answer.
pub fn drive(
    server: &mut Server,
    wl: &Workload,
    reqs: &[Req],
    first_id: u64,
    pace: Pace,
) -> Result<Run, String> {
    while server.conns.len() < wl.connections {
        let conn = Conn::open(&server.addr)?;
        server.conns.push(conn);
    }
    let mut conns = std::mem::take(&mut server.conns);
    let mut records = vec![Record::default(); reqs.len()];
    let mut pending: HashMap<u64, usize> = HashMap::new();
    let mut errors = Vec::new();
    let (mut next, mut answered, mut backlog_max) = (0usize, 0usize, 0usize);
    let (mut sent, mut lines) = (Vec::new(), Vec::new());
    let measure_from = match pace {
        Pace::Open {
            measure_from_us, ..
        }
        | Pace::Closed {
            measure_from_us, ..
        } => measure_from_us,
        Pace::Sequential => 0.0,
    };
    let mut cpu_start: Option<(f64, f64)> = None;
    let start = Instant::now();
    let now_us = || start.elapsed().as_secs_f64() * 1e6;
    let give_up_us = match pace {
        Pace::Open { offset_us, .. } => {
            reqs.last().map_or(0.0, |r| (r.due_us - offset_us) as f64) + 60e6
        }
        Pace::Closed { stop_after_us, .. } => stop_after_us + 60e6,
        Pace::Sequential => f64::INFINITY,
    };
    loop {
        let now = now_us();
        if cpu_start.is_none() && now >= measure_from {
            cpu_start = Some((server.cpu_us(), now));
        }
        // Release what is due.
        let in_flight = next - answered;
        while next < reqs.len() {
            let due = match pace {
                Pace::Open { offset_us, .. } => (reqs[next].due_us - offset_us) as f64,
                Pace::Closed { stop_after_us, .. } if in_flight == 0 && now < stop_after_us => now,
                Pace::Sequential if next == answered => now,
                _ => break,
            };
            if due > now {
                break;
            }
            let id = first_id + next as u64;
            let req = &reqs[next];
            conns[req.conn as usize].push(next, &wl.line(req, id));
            records[next].due_us = due;
            pending.insert(id, next);
            next += 1;
            if !matches!(pace, Pace::Open { .. }) {
                break;
            }
        }
        backlog_max = backlog_max.max(next - answered);
        for conn in &mut conns {
            conn.flush(&mut sent)?;
        }
        let flushed = now_us();
        for index in sent.drain(..) {
            records[index].sent_us = flushed;
        }
        for conn in &mut conns {
            conn.receive(&mut lines)?;
        }
        let received = now_us();
        let cpu_now = match pace {
            Pace::Closed { .. } if !lines.is_empty() => server.cpu_us(),
            _ => 0.0,
        };
        for body in lines.drain(..) {
            let Some(index) = echoed_id(&body).and_then(|id| pending.remove(&id)) else {
                return Err(format!(
                    "response with an unknown id: {}",
                    body.chars().take(200).collect::<String>()
                ));
            };
            let record = &mut records[index];
            record.done_us = received;
            record.cpu_us = cpu_now;
            record.answered = true;
            answered += 1;
            match wl.check(&reqs[index], first_id + index as u64, &body) {
                Ok(()) => record.ok = true,
                Err(e) if errors.len() < 5 => errors.push(e),
                Err(_) => {}
            }
        }
        let all_sent = next == reqs.len()
            || matches!(pace, Pace::Closed { stop_after_us, .. } if received >= stop_after_us);
        if all_sent && answered == next {
            break;
        }
        if received > give_up_us {
            errors.push(format!(
                "{} requests unanswered after the run",
                next - answered
            ));
            break;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        let timeout = match pace {
            Pace::Open { offset_us, .. } if next < reqs.len() => {
                let due = (reqs[next].due_us - offset_us) as f64;
                Duration::from_secs_f64(((due - now_us()) / 1e6).clamp(0.0, 0.1))
            }
            // Closed loop: the next request goes out as soon as the last
            // answer is in.
            Pace::Closed { .. } | Pace::Sequential if answered == next => Duration::ZERO,
            _ => Duration::from_millis(100),
        };
        if !timeout.is_zero() {
            wait(&mut fds, timeout);
        }
    }
    server.conns = conns;
    let end = now_us();
    let (cpu0, t0) = cpu_start.unwrap_or((server.cpu_us(), end));
    Ok(Run {
        records,
        errors,
        backlog_max,
        cpu_us: server.cpu_us() - cpu0,
        window_us: end - t0,
    })
}
