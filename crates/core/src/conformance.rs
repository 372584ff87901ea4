//! A conformance battery for [`LoggingProtocol`] implementations.
//!
//! The runtime relies on behavioural contracts the trait's signatures
//! cannot express (gate/enforcement agreement, checkpoint fidelity,
//! logger hand-off semantics). [`check_protocol`] runs them all and
//! panics precisely on any violation; `every_shipped_protocol_conforms`
//! runs it over every [`ProtocolKind`](crate::ProtocolKind).

use crate::{DeliveryVerdict, LoggingProtocol, Rank};

/// Factory signature: build the protocol instance for rank `me` of
/// `n`.
pub type Factory<'a> = &'a dyn Fn(Rank, usize) -> Box<dyn LoggingProtocol>;

/// Run the full battery at system size `n` (need `n >= 3`).
pub fn check_protocol(factory: Factory<'_>, n: usize) {
    assert!(n >= 3, "conformance battery needs n >= 3");
    check_identity(factory, n);
    check_roundtrip_advances_state(factory, n);
    check_gate_agreement(factory, n);
    check_checkpoint_fidelity(factory, n);
    check_recovery_info_idempotent(factory, n);
    check_logger_contract(factory, n);
    check_checkpoint_hooks_preserve_liveness(factory, n);
}

fn instantly_stabilize(p: &mut Box<dyn LoggingProtocol>) {
    if p.kind().uses_event_logger() {
        let upto = p.delivered_total();
        let _ = p.drain_determinants_for_logger();
        p.on_logger_ack(upto);
    }
}

fn check_identity(factory: Factory<'_>, n: usize) {
    for me in 0..n {
        let p = factory(me, n);
        assert_eq!(p.me(), me, "me() must echo the construction rank");
        assert_eq!(p.n(), n, "n() must echo the system size");
        assert_eq!(p.delivered_total(), 0, "fresh instances have delivered nothing");
        assert!(
            p.determinants_for(0).is_empty(),
            "fresh instances know no determinants"
        );
    }
}

fn check_roundtrip_advances_state(factory: Factory<'_>, n: usize) {
    let mut a = factory(0, n);
    let mut b = factory(1, n);
    for i in 1..=5u64 {
        let art = a.on_send(1, i);
        assert_eq!(
            b.deliverable(0, i, &art.piggyback),
            DeliveryVerdict::Deliver,
            "normal-operation FIFO-next messages must be deliverable"
        );
        b.on_deliver(0, i, &art.piggyback)
            .expect("approved delivery succeeds");
        assert_eq!(b.delivered_total(), i, "delivered_total counts deliveries");
        instantly_stabilize(&mut b);
    }
    assert_eq!(a.delivered_total(), 0, "sending does not count as delivering");
}

fn check_gate_agreement(factory: Factory<'_>, n: usize) {
    // Whenever deliverable() says Wait, on_deliver must refuse; when
    // it says Deliver, on_deliver must succeed. Exercise both via a
    // replay script when the protocol uses one, and via plain traffic
    // otherwise.
    let mut a = factory(0, n);
    let mut b = factory(1, n);
    let art = a.on_send(1, 1);
    match b.deliverable(0, 1, &art.piggyback) {
        DeliveryVerdict::Deliver => {
            b.on_deliver(0, 1, &art.piggyback)
                .expect("gate said Deliver; on_deliver must agree");
        }
        DeliveryVerdict::Wait => {
            b.on_deliver(0, 1, &art.piggyback)
                .expect_err("gate said Wait; on_deliver must refuse");
        }
    }
}

fn check_checkpoint_fidelity(factory: Factory<'_>, n: usize) {
    let mut a = factory(0, n);
    let mut b = factory(1, n);
    for i in 1..=3u64 {
        let art = a.on_send(1, i);
        b.on_deliver(0, i, &art.piggyback).expect("deliver");
        instantly_stabilize(&mut b);
    }
    let blob = b.checkpoint_bytes();
    let mut restored = factory(1, n);
    restored
        .restore_from_checkpoint(&blob)
        .expect("own checkpoint restores");
    assert_eq!(
        restored.delivered_total(),
        b.delivered_total(),
        "restore must reproduce the delivery count"
    );
    // The restored instance accepts the next message exactly like the
    // original would.
    let art = a.on_send(1, 4);
    assert_eq!(
        restored.deliverable(0, 4, &art.piggyback),
        b.deliverable(0, 4, &art.piggyback),
        "restored gate must agree with the original"
    );
    // Corrupt checkpoints must be rejected, not trusted.
    let mut fresh = factory(1, n);
    assert!(
        fresh.restore_from_checkpoint(&[0xFF, 0x13, 0x37]).is_err()
            || fresh.delivered_total() == 0,
        "garbage checkpoints must not smuggle in state"
    );
}

fn check_recovery_info_idempotent(factory: Factory<'_>, n: usize) {
    let mut a = factory(0, n);
    let mut b = factory(1, n);
    let art1 = a.on_send(1, 1);
    let art2 = a.on_send(1, 2);
    b.on_deliver(0, 1, &art1.piggyback).expect("deliver");
    instantly_stabilize(&mut b);
    b.on_deliver(0, 2, &art2.piggyback).expect("deliver");
    instantly_stabilize(&mut b);
    // Whatever b knows about rank 1's history, installing it into an
    // incarnation twice (two survivors reporting the same events) must
    // be harmless and must allow replaying the original order.
    let mut survivors_view = b.determinants_for(1);
    let own_history = vec![
        crate::Determinant {
            sender: 0,
            send_index: 1,
            receiver: 1,
            deliver_index: 1,
        },
        crate::Determinant {
            sender: 0,
            send_index: 2,
            receiver: 1,
            deliver_index: 2,
        },
    ];
    survivors_view.extend(own_history);
    let mut incarnation = factory(1, n);
    incarnation.install_recovery_info(survivors_view.clone());
    incarnation.install_recovery_info(survivors_view);
    assert_eq!(
        incarnation.deliverable(0, 1, &art1.piggyback),
        DeliveryVerdict::Deliver,
        "original first delivery must replay first"
    );
    incarnation
        .on_deliver(0, 1, &art1.piggyback)
        .expect("replay step 1");
    instantly_stabilize(&mut incarnation);
    incarnation
        .on_deliver(0, 2, &art2.piggyback)
        .expect("replay step 2");
}

fn check_logger_contract(factory: Factory<'_>, n: usize) {
    let mut a = factory(0, n);
    let mut b = factory(1, n);
    if !b.kind().uses_event_logger() {
        assert!(
            b.drain_determinants_for_logger().is_empty(),
            "loggerless protocols must not emit determinants"
        );
        return;
    }
    let art = a.on_send(1, 1);
    b.on_deliver(0, 1, &art.piggyback).expect("deliver");
    let batch = b.drain_determinants_for_logger();
    assert_eq!(batch.len(), 1, "one delivery yields one determinant");
    assert_eq!(batch[0].receiver as Rank, 1);
    assert!(
        b.drain_determinants_for_logger().is_empty(),
        "drain must hand over each determinant exactly once"
    );
    b.on_logger_ack(1);
    let acked = b.on_send(0, 1).piggyback;
    // Acks are monotone: a stale smaller ack must not regress state.
    b.on_logger_ack(0);
    assert_eq!(b.on_send(0, 2).piggyback, acked, "stale acks must be ignored");
}

fn check_checkpoint_hooks_preserve_liveness(factory: Factory<'_>, n: usize) {
    let mut a = factory(0, n);
    let mut b = factory(1, n);
    for i in 1..=2u64 {
        let art = a.on_send(1, i);
        b.on_deliver(0, i, &art.piggyback).expect("deliver");
        instantly_stabilize(&mut b);
    }
    b.on_local_checkpoint();
    a.on_peer_checkpoint(1, b.delivered_total());
    // Traffic continues to flow after GC hooks.
    let art = a.on_send(1, 3);
    assert_eq!(
        b.deliverable(0, 3, &art.piggyback),
        DeliveryVerdict::Deliver,
        "checkpoint hooks must not wedge normal operation"
    );
    b.on_deliver(0, 3, &art.piggyback).expect("deliver after GC");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_protocol, ProtocolKind};

    #[test]
    fn every_shipped_protocol_conforms() {
        for kind in ProtocolKind::EXTENDED {
            for n in [3usize, 4, 8] {
                check_protocol(&|me, size| make_protocol(kind, me, size), n);
            }
        }
    }
}
