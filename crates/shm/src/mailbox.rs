//! Tagged point-to-point messaging between rank threads.
//!
//! The "inter-node fabric" of the thread cluster: every rank owns a
//! [`Mailbox`] (an unbounded channel receiver plus an out-of-order buffer)
//! and a [`Network`] handle holding senders to all ranks. Matching is by
//! `(from, tag)` in FIFO order per pair, mirroring MPI and the simulator's
//! matching semantics.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sender's global rank.
    pub from: usize,
    /// Match tag.
    pub tag: u64,
    /// Payload.
    pub data: Vec<f64>,
}

/// Cloneable handle for sending to any rank.
#[derive(Debug, Clone)]
pub struct Network {
    senders: Vec<Sender<Msg>>,
}

impl Network {
    /// Build a network of `ranks` mailboxes.
    pub fn new(ranks: usize) -> (Network, Vec<Mailbox>) {
        let (senders, boxes) = (0..ranks)
            .map(|_| {
                let (tx, rx) = unbounded();
                let mailbox = Mailbox {
                    rx,
                    pending: VecDeque::new(),
                };
                (tx, mailbox)
            })
            .unzip();
        (Network { senders }, boxes)
    }

    /// Send `data` from `from` to `to` with `tag`. A send to a rank whose
    /// [`Mailbox`] is gone is dropped.
    pub fn send(&self, from: usize, to: usize, tag: u64, data: Vec<f64>) {
        let _ = self.senders[to].send(Msg { from, tag, data });
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.senders.len()
    }
}

/// Per-rank receive endpoint with out-of-order buffering.
#[derive(Debug)]
pub struct Mailbox {
    rx: Receiver<Msg>,
    pending: VecDeque<Msg>,
}

impl Mailbox {
    /// Blocking receive of the first message matching `(from, tag)`,
    /// buffering non-matching arrivals.
    pub fn recv_from(&mut self, from: usize, tag: u64) -> Vec<f64> {
        if let Some(m) = self.take_pending(from, tag) {
            return m.data;
        }
        loop {
            let m = self.rx.recv().expect("sender alive");
            if m.from == from && m.tag == tag {
                return m.data;
            }
            self.pending.push_back(m);
        }
    }

    /// Number of buffered out-of-order messages (diagnostics).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Pop the first buffered message matching `(from, tag)`, if any.
    fn take_pending(&mut self, from: usize, tag: u64) -> Option<Msg> {
        let pos = self
            .pending
            .iter()
            .position(|m| m.from == from && m.tag == tag)?;
        Some(self.pending.remove(pos).expect("position valid"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_to_a_dropped_mailbox_is_dropped_not_a_panic() {
        let (net, mut boxes) = Network::new(2);
        drop(boxes.pop());
        net.send(0, 1, 3, vec![1.0]);
        net.send(1, 0, 3, vec![2.0]);
        assert_eq!(boxes[0].recv_from(1, 3), vec![2.0]);
    }

    #[test]
    fn direct_delivery() {
        let (net, mut boxes) = Network::new(2);
        net.send(0, 1, 7, vec![1.0, 2.0]);
        assert_eq!(boxes[1].recv_from(0, 7), vec![1.0, 2.0]);
    }

    #[test]
    fn out_of_order_matching() {
        let (net, mut boxes) = Network::new(3);
        net.send(2, 0, 1, vec![2.0]);
        net.send(1, 0, 1, vec![1.0]);
        // Ask for rank 1's message first although rank 2's arrived first.
        assert_eq!(boxes[0].recv_from(1, 1), vec![1.0]);
        assert_eq!(boxes[0].buffered(), 1);
        assert_eq!(boxes[0].recv_from(2, 1), vec![2.0]);
        assert_eq!(boxes[0].buffered(), 0);
    }

    #[test]
    fn fifo_per_pair_and_tag() {
        let (net, mut boxes) = Network::new(2);
        net.send(0, 1, 5, vec![1.0]);
        net.send(0, 1, 5, vec![2.0]);
        assert_eq!(boxes[1].recv_from(0, 5), vec![1.0]);
        assert_eq!(boxes[1].recv_from(0, 5), vec![2.0]);
    }

    #[test]
    fn cross_thread_exchange() {
        let (net, boxes) = Network::new(2);
        let mut boxes: Vec<Option<Mailbox>> = boxes.into_iter().map(Some).collect();
        let mut b0 = boxes[0].take().unwrap();
        let mut b1 = boxes[1].take().unwrap();
        let net2 = net.clone();
        let h = std::thread::spawn(move || {
            net2.send(1, 0, 0, vec![10.0]);
            b1.recv_from(0, 0)
        });
        net.send(0, 1, 0, vec![20.0]);
        assert_eq!(b0.recv_from(1, 0), vec![10.0]);
        assert_eq!(h.join().unwrap(), vec![20.0]);
    }
}
