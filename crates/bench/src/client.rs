//! Retrying client for the `oi.serve.v1` protocol.
//!
//! Three layers, shared by `oic client` and, through
//! [`crate::replay::flood_then_retry`], by `oic bench brownoutload` and
//! the `retry-storm` chaos row:
//!
//! - **In-process transport**: [`ChannelReader`] / [`LineWriter`] adapt
//!   mpsc channels to the `BufRead`/`Write` pair [`run_serve`] pumps, so
//!   a test or load driver can hold a live serve session without a
//!   subprocess ([`with_pump_client`]).
//! - **Subprocess transport**: [`ProcessTransport`] spawns `oic serve`
//!   with piped stdio — the transport behind `oic client`.
//! - **Retry driver**: [`request_with_retries`] resends a request while
//!   the server answers with a *retryable* typed refusal
//!   ([`crate::replay::RETRYABLE_KINDS`]), backing off
//!   exponentially with full jitter, floored at the server's
//!   `retry_after_ms` hint, within a total time budget (DESIGN §17).

use std::io::{BufRead, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

use oi_support::Json;

use crate::cli::scan_flags;
use crate::overload::{RetryPolicy, RetrySession};
use crate::replay::Reply;
use crate::serve::{run_serve, Server};

/// How long a client waits for a single response before declaring the
/// transport dead. Generous: the watchdog answers wedged requests long
/// before this.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Blocking `BufRead` over a channel of lines: the serve pump's stdin
/// when the server is embedded in-process. EOF when every sender is
/// dropped.
pub struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl ChannelReader {
    /// Wraps a line channel as a reader.
    pub fn new(rx: Receiver<String>) -> ChannelReader {
        ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(mut line) => {
                    if !line.ends_with('\n') {
                        line.push('\n');
                    }
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => {
                    // All senders gone: permanent EOF.
                    self.buf.clear();
                    self.pos = 0;
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// `Write` that re-splits the serve pump's output into lines on a
/// channel — the in-process counterpart of reading a child's stdout.
pub struct LineWriter {
    tx: Sender<String>,
    buf: Vec<u8>,
}

impl LineWriter {
    /// Wraps a line channel as a writer.
    pub fn new(tx: Sender<String>) -> LineWriter {
        LineWriter {
            tx,
            buf: Vec::new(),
        }
    }
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(idx) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=idx).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let _ = self.tx.send(text);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A live in-process serve session: send request lines, receive parsed
/// response lines. Requests may be pipelined (send several, then
/// collect) — responses come back in request order.
pub struct PumpClient {
    tx: Sender<String>,
    rx: Receiver<String>,
}

impl PumpClient {
    /// Queues one request line (never blocks).
    pub fn send_line(&self, line: &str) {
        let _ = self.tx.send(line.to_string());
    }

    /// Blocks for the next response line. `None` on timeout or a dead
    /// session.
    pub fn recv_line(&self) -> Option<Json> {
        self.rx
            .recv_timeout(RESPONSE_TIMEOUT)
            .ok()
            .and_then(|l| Json::parse(&l).ok())
    }
}

/// One request line in, one response out.
pub trait Transport {
    /// Sends `line` and blocks for its response; `None` means the
    /// transport itself failed (timeout, dead process).
    fn roundtrip(&mut self, line: &str) -> Option<Json>;
}

impl Transport for PumpClient {
    fn roundtrip(&mut self, line: &str) -> Option<Json> {
        self.send_line(line);
        self.recv_line()
    }
}

/// Runs `f` against a live [`run_serve`] session over in-process
/// channels. When `f` returns, the input side closes, the server drains
/// gracefully (flushing any disk tier), and the session joins before
/// the result is returned.
pub fn with_pump_client<T, F>(server: &Server, f: F) -> T
where
    F: FnOnce(&mut PumpClient) -> T,
{
    let (in_tx, in_rx) = mpsc::channel::<String>();
    let (out_tx, out_rx) = mpsc::channel::<String>();
    std::thread::scope(|s| {
        let session = s.spawn(move || {
            let input = ChannelReader::new(in_rx);
            let mut output = LineWriter::new(out_tx);
            run_serve(server, input, &mut output)
        });
        let mut client = PumpClient {
            tx: in_tx,
            rx: out_rx,
        };
        let result = f(&mut client);
        drop(client); // closes serve's stdin: graceful drain
        let _ = session.join();
        result
    })
}

/// What one retried request ultimately came to.
pub struct RetryOutcome {
    /// The final response (success, non-retryable error, or the last
    /// refusal when retries ran out); `None` when the transport died.
    pub response: Option<Json>,
    /// Attempts answered, first try included.
    pub attempts: u32,
    /// Answers that were load sheds ([`Reply::shed`]), the final one
    /// included.
    pub sheds: u32,
    /// Total backoff slept, in milliseconds.
    pub backoff_ms_total: u64,
    /// `true` when retries were exhausted (or the transport died)
    /// before a non-retryable answer arrived.
    pub gave_up: bool,
}

impl RetryOutcome {
    /// Did the final response land `ok:true`?
    pub fn ok(&self) -> bool {
        self.response.as_ref().is_some_and(|r| Reply(r).ok())
    }
}

/// Sends `line`, retrying retryable refusals with jittered exponential
/// backoff floored at the server's `retry_after_ms` hint, until a
/// terminal answer or the session's policy gives up.
pub fn request_with_retries(
    transport: &mut dyn Transport,
    line: &str,
    session: &mut RetrySession,
) -> RetryOutcome {
    let mut attempts = 0u32;
    let mut sheds = 0u32;
    let mut spent = 0u64;
    loop {
        let resp = transport.roundtrip(line);
        attempts += 1;
        let Some(resp) = resp else {
            return RetryOutcome {
                response: None,
                attempts,
                sheds,
                backoff_ms_total: spent,
                gave_up: true,
            };
        };
        let reply = Reply(&resp);
        sheds += u32::from(reply.shed());
        if !reply.retryable() {
            return RetryOutcome {
                response: Some(resp),
                attempts,
                sheds,
                backoff_ms_total: spent,
                gave_up: false,
            };
        }
        match session.backoff_ms(attempts, reply.retry_after_ms(), spent) {
            Some(ms) => {
                spent += ms;
                std::thread::sleep(Duration::from_millis(ms));
            }
            None => {
                return RetryOutcome {
                    response: Some(resp),
                    attempts,
                    sheds,
                    backoff_ms_total: spent,
                    gave_up: true,
                };
            }
        }
    }
}

/// A spawned `oic serve` child with piped stdio.
pub struct ProcessTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: std::io::BufReader<ChildStdout>,
}

impl ProcessTransport {
    /// Spawns `oic serve <serve_args>` next to the current executable.
    pub fn spawn(serve_args: &[String]) -> Result<ProcessTransport, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate oic: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .arg("serve")
            .args(serve_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn `oic serve`: {e}"))?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| "serve child has no stdin".to_string())?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| "serve child has no stdout".to_string())?;
        Ok(ProcessTransport {
            child,
            stdin: Some(stdin),
            stdout: std::io::BufReader::new(stdout),
        })
    }

    /// Asks the server to shut down and reaps the child. Returns its
    /// exit code when it exited cleanly.
    pub fn shutdown(mut self) -> Option<i32> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "{{\"op\":\"shutdown\"}}");
            let _ = stdin.flush();
            // Dropping stdin closes the pipe; the server drains.
        }
        let mut line = String::new();
        let _ = self.stdout.read_line(&mut line); // the shutdown ack
        self.child.wait().ok().and_then(|s| s.code())
    }
}

impl Transport for ProcessTransport {
    fn roundtrip(&mut self, line: &str) -> Option<Json> {
        let stdin = self.stdin.as_mut()?;
        writeln!(stdin, "{line}").ok()?;
        stdin.flush().ok()?;
        let mut resp = String::new();
        match self.stdout.read_line(&mut resp) {
            Ok(0) | Err(_) => None,
            Ok(_) => Json::parse(resp.trim()).ok(),
        }
    }
}

const USAGE: &str = "usage: oic client [--retries N] [--budget-ms N] [--seed N] \
     [--serve-args \"FLAGS\"]\n\
     \n\
     Retrying oi.serve.v1 client: spawns `oic serve` (pass extra server\n\
     flags via --serve-args, whitespace-split), reads one JSON request per\n\
     stdin line, and prints the final response for each to stdout. Typed\n\
     backpressure refusals (overloaded, shedding, tenant-over-concurrency,\n\
     quarantined) are retried with jittered exponential backoff honoring\n\
     the server's retry_after_ms hint, up to --retries extra attempts\n\
     (default 4) within --budget-ms total backoff (default 5000). A final\n\
     oi.client.v1 summary goes to stderr. Exit 1 when any request gave up.";

/// Entry point for `oic client`.
pub fn cli_main(args: &[String]) -> u8 {
    let mut policy = RetryPolicy::default();
    let mut seed = 1u64;
    let mut serve_args: Vec<String> = Vec::new();
    let scanned = scan_flags(args, USAGE, |flag, s| {
        match flag {
            "--retries" => {
                let retries = s.integer(flag)?.min(u64::from(u32::MAX)) as u32;
                policy.max_attempts = retries.saturating_add(1);
            }
            "--budget-ms" => policy.budget_ms = s.integer(flag)?,
            "--seed" => seed = s.integer(flag)?,
            "--serve-args" => {
                serve_args.extend(s.value_for(flag)?.split_whitespace().map(str::to_string));
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        Ok(())
    });
    if let Err(code) = scanned {
        return code;
    }
    let mut transport = match ProcessTransport::spawn(&serve_args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("oic client: {e}");
            return 1;
        }
    };
    let mut requests = 0u64;
    let mut oks = 0u64;
    let mut errors = 0u64;
    let mut retries = 0u64;
    let mut give_ups = 0u64;
    let mut backoff_total = 0u64;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut session = RetrySession::new(policy, seed ^ requests.wrapping_mul(0x9e37_79b9));
        let outcome = request_with_retries(&mut transport, &line, &mut session);
        requests += 1;
        retries += u64::from(outcome.attempts.saturating_sub(1));
        backoff_total += outcome.backoff_ms_total;
        if outcome.gave_up {
            give_ups += 1;
        }
        match &outcome.response {
            Some(resp) => {
                if outcome.ok() {
                    oks += 1;
                } else {
                    errors += 1;
                }
                println!("{resp}");
            }
            None => {
                errors += 1;
                println!(
                    "{}",
                    Json::obj(vec![
                        ("schema", "oi.serve.v1".into()),
                        ("ok", false.into()),
                        ("error_kind", "transport".into()),
                        ("error", "no response from serve child".into()),
                    ])
                );
            }
        }
    }
    let _ = transport.shutdown();
    let summary = Json::obj(vec![
        ("schema", "oi.client.v1".into()),
        ("requests", requests.into()),
        ("ok", oks.into()),
        ("errors", errors.into()),
        ("retries", retries.into()),
        ("give_ups", give_ups.into()),
        ("backoff_ms_total", backoff_total.into()),
    ]);
    eprintln!("{summary}");
    u8::from(give_ups > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Line;
    use crate::serve::ServeConfig;

    const SOURCE: &str = "fn main() { print 2 + 3; }";

    #[test]
    fn pump_client_roundtrips_in_order() {
        let server = Server::new(ServeConfig::default());
        let (first, second) = with_pump_client(&server, |client| {
            client.send_line(&Line::compile(1, SOURCE).to_string());
            client.send_line(&Line::compile(2, SOURCE).to_string());
            (client.recv_line().unwrap(), client.recv_line().unwrap())
        });
        assert_eq!(first.get("id").and_then(Json::as_i64), Some(1));
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn retries_ride_out_a_brownout_shed() {
        use oi_core::BrownoutLevel;
        // Cache-only brownout sheds the first attempts; service recovers
        // before the retry budget runs out, so the client converges.
        let server = Server::new(ServeConfig {
            brownout_target_ms: Some(1_000),
            ..ServeConfig::default()
        });
        server.force_brownout(BrownoutLevel::CacheOnly);
        let outcome = with_pump_client(&server, |client| {
            let policy = RetryPolicy {
                max_attempts: 8,
                base_ms: 15,
                cap_ms: 60,
                budget_ms: 5_000,
            };
            let mut session = RetrySession::new(policy, 7);
            // Recover the service from another thread mid-retry.
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(40));
                    server.force_brownout(BrownoutLevel::GuardedFull);
                });
                request_with_retries(client, &Line::compile(1, SOURCE).to_string(), &mut session)
            })
        });
        assert!(outcome.ok(), "retries must converge after recovery");
        assert!(outcome.attempts >= 2, "first attempt must have been shed");
        assert_eq!(
            outcome.sheds,
            outcome.attempts - 1,
            "every refusal was a shed"
        );
        assert!(!outcome.gave_up);
        assert!(outcome.backoff_ms_total >= 1);
    }

    #[test]
    fn exhausted_retries_give_up_with_the_last_refusal() {
        use oi_core::BrownoutLevel;
        let server = Server::new(ServeConfig {
            brownout_target_ms: Some(1_000),
            ..ServeConfig::default()
        });
        server.force_brownout(BrownoutLevel::CacheOnly);
        let outcome = with_pump_client(&server, |client| {
            let policy = RetryPolicy {
                max_attempts: 3,
                base_ms: 1,
                cap_ms: 2,
                budget_ms: 1_000,
            };
            let mut session = RetrySession::new(policy, 3);
            request_with_retries(client, &Line::compile(1, SOURCE).to_string(), &mut session)
        });
        assert!(outcome.gave_up);
        assert_eq!(outcome.attempts, 3);
        assert_eq!(outcome.sheds, 3, "the final refusal counts too");
        assert_eq!(
            outcome
                .response
                .as_ref()
                .and_then(|r| r.get("error_kind"))
                .and_then(Json::as_str),
            Some("shedding")
        );
    }

    #[test]
    fn non_retryable_errors_are_terminal_on_the_first_attempt() {
        let server = Server::new(ServeConfig::default());
        let outcome = with_pump_client(&server, |client| {
            let mut session = RetrySession::new(Default::default(), 5);
            request_with_retries(
                client,
                &Line::compile(1, "fn main() { print ; }").to_string(),
                &mut session,
            )
        });
        assert!(!outcome.ok());
        assert!(!outcome.gave_up);
        assert_eq!((outcome.attempts, outcome.sheds), (1, 0));
    }
}
