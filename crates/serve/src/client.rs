//! Blocking client for the serve protocol.
//!
//! One `Client` wraps one connection. The simple calls (`submit_and_wait`,
//! `stats`, …) assume request/response discipline on the connection; for
//! pipelined submissions use [`Client::submit`] + [`Client::read_response`]
//! and match `Finished` ids yourself (the server pushes them in completion
//! order).

use crate::job::{JobOutcome, JobSpec};
use crate::protocol::{self, Request, Response, WatchFrame};
use dpml_shm::MetricsSnapshot;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (daemon died, torn frame, timeout).
    Io(std::io::Error),
    /// The server closed the connection mid-conversation.
    Disconnected,
    /// The server answered something the call cannot interpret.
    /// Boxed: `Response` carries whole watch frames, and a fat error
    /// variant would bloat every `Result` on the client hot path.
    Unexpected(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What a submit ultimately produced, as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// Admitted and finished (possibly from cache).
    Finished {
        /// Job id.
        id: u64,
        /// True when served from the result cache.
        cached: bool,
        /// Terminal outcome.
        outcome: JobOutcome,
    },
    /// Shed at admission.
    Rejected {
        /// One of the [`protocol::reject`] constants.
        reason: String,
        /// Retry hint in milliseconds (0 = don't).
        retry_after_ms: u64,
    },
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bound every read so a killed daemon surfaces as an error instead
    /// of a hang.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send one request frame.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        protocol::send(&mut self.stream, req)?;
        self.stream.flush()
    }

    /// Read one response frame; `None` on clean server close.
    pub fn read_response(&mut self) -> std::io::Result<Option<Response>> {
        protocol::recv(&mut self.stream)
    }

    fn expect_response(&mut self) -> Result<Response, ClientError> {
        self.read_response()?.ok_or(ClientError::Disconnected)
    }

    /// Submit without waiting; returns the immediate `Accepted` /
    /// `Rejected` (and, for cache hits, the already-pushed `Finished`
    /// arrives next on the wire).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Response, ClientError> {
        self.send(&Request::Submit { spec: spec.clone() })?;
        self.expect_response()
    }

    /// Submit and block until the job's terminal outcome.
    pub fn submit_and_wait(&mut self, spec: &JobSpec) -> Result<Submission, ClientError> {
        match self.submit(spec)? {
            Response::Accepted { id, cached, .. } => loop {
                match self.expect_response()? {
                    Response::Finished {
                        id: fid, outcome, ..
                    } if fid == id => {
                        return Ok(Submission::Finished {
                            id,
                            cached,
                            outcome,
                        })
                    }
                    // Finished for an earlier pipelined job on this
                    // connection: not ours, keep reading.
                    Response::Finished { .. } => continue,
                    other => return Err(ClientError::Unexpected(Box::new(other))),
                }
            },
            Response::Rejected {
                reason,
                retry_after_ms,
                ..
            } => Ok(Submission::Rejected {
                reason,
                retry_after_ms,
            }),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Cancel a job; returns the server's `state` string.
    pub fn cancel(&mut self, id: u64) -> Result<String, ClientError> {
        self.send(&Request::Cancel { id })?;
        match self.expect_response()? {
            Response::CancelAck { state, .. } => Ok(state),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Snapshot the server counters.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.send(&Request::Stats)?;
        match self.expect_response()? {
            Response::StatsReply { stats } => Ok(stats),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Ask the daemon to drain; returns the jobs pending at drain start.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Shutdown)?;
        match self.expect_response()? {
            Response::ShutdownAck { pending } => Ok(pending),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetch the Prometheus-style text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Metrics)?;
        match self.expect_response()? {
            Response::MetricsText { text } => Ok(text),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Subscribe to a `watch` stream. After this, call
    /// [`Client::next_frame`] once per expected frame; when `frames`
    /// frames have arrived the connection returns to request/response
    /// discipline.
    pub fn watch_start(&mut self, interval_ms: u64, frames: u32) -> Result<(), ClientError> {
        self.send(&Request::Watch {
            interval_ms,
            frames,
        })?;
        Ok(())
    }

    /// Read the next streamed frame; `None` on clean server close.
    pub fn next_frame(&mut self) -> Result<Option<WatchFrame>, ClientError> {
        match self.read_response()? {
            Some(Response::Frame { frame }) => Ok(Some(frame)),
            None => Ok(None),
            Some(other) => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.expect_response()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }
}
