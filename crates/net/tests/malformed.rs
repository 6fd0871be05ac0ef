//! Malformed-frame battery: hostile bytes must produce *typed* errors —
//! never a panic, never a hang, and never a wedged server.
//!
//! Three layers are attacked: the [`FrameReader`] (truncated prefixes,
//! oversized declared lengths, split deliveries), the envelope decoder
//! (garbage and bit-flipped bodies), and a live [`NetNode`] taking raw
//! socket garbage while a well-behaved client keeps issuing requests.

use std::io::Write as IoWrite;
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use vrr_core::StorageConfig;
use vrr_net::frame::{decode_body, encode_frame, Ctl, Envelope, FrameError, FrameReader, Payload};
use vrr_net::{free_addrs, NetClient, NetNode, NetNodeConfig, NodeTopology, MAX_FRAME_LEN};
use vrr_runtime::ProtocolKind;

fn hello_frame(node: u32) -> Vec<u8> {
    encode_frame(&Envelope::<u64> {
        source: node,
        epoch: 0,
        seq: 0,
        payload: Payload::Ctl(Ctl::Hello { node, epoch: 0 }),
    })
}

/// Truncating a valid frame at *every* byte boundary never yields an
/// error and never yields a frame: the reader just waits for the rest.
#[test]
fn truncated_prefixes_pend_quietly() {
    let frame = hello_frame(7);
    for cut in 0..frame.len() {
        let mut r = FrameReader::new();
        r.extend(&frame[..cut]);
        let out = r.next_frame().expect("truncation is not an error");
        assert!(out.is_none(), "cut at {cut} must not complete a frame");
        // The remainder arriving later completes it.
        r.extend(&frame[cut..]);
        let body = r.next_frame().unwrap().expect("completes");
        decode_body::<u64>(&body).expect("decodes");
    }
}

/// Truncating the *body* (valid prefix, short payload) decodes to a typed
/// `Truncated` error, at every cut point.
#[test]
fn truncated_bodies_are_typed_errors() {
    let frame = hello_frame(7);
    let body = &frame[4..];
    for cut in 0..body.len() {
        match decode_body::<u64>(&body[..cut]) {
            Err(FrameError::Decode(_)) => {}
            Ok(env) => {
                // A shorter valid encoding would mean trailing bytes in the
                // original — both can't hold.
                panic!("cut at {cut} decoded to {env:?} yet full body decodes too");
            }
            Err(e) => panic!("cut at {cut}: wanted a decode error, got {e}"),
        }
    }
}

/// A declared length beyond [`MAX_FRAME_LEN`] is rejected from the prefix
/// alone — before any body bytes are buffered.
#[test]
fn oversized_declared_lengths_rejected_immediately() {
    for len in [
        MAX_FRAME_LEN as u64 + 1,
        u32::MAX as u64,
        (MAX_FRAME_LEN as u64) * 2,
    ] {
        let mut r = FrameReader::new();
        r.extend(&(len as u32).to_le_bytes());
        match r.next_frame() {
            Err(FrameError::Oversized { declared }) => assert_eq!(declared, len),
            other => panic!("declared {len}: expected Oversized, got {other:?}"),
        }
    }
}

/// An exactly-max-length declaration is not oversized (boundary check).
#[test]
fn max_len_boundary_is_accepted() {
    let mut r = FrameReader::new();
    r.extend(&(MAX_FRAME_LEN as u32).to_le_bytes());
    assert!(r.next_frame().expect("within bounds").is_none());
}

proptest! {
    /// Random garbage bodies behind a well-formed prefix: always a typed
    /// error or a (coincidentally) valid envelope — never a panic.
    #[test]
    fn garbage_bodies_never_panic(body in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_body::<u64>(&body);
    }

    /// Byte-flip corruption of a real frame, fed through the reader in
    /// random chunks: every outcome is typed.
    #[test]
    fn bitflipped_frames_never_panic(seed in any::<u64>()) {
        let mut frame = hello_frame(3);
        let n = frame.len();
        let idx = (seed as usize) % n;
        frame[idx] ^= 1 + (seed >> 32) as u8 % 255;
        let mut r = FrameReader::new();
        let mid = (seed as usize >> 8) % n;
        r.extend(&frame[..mid]);
        let mut feed_rest = true;
        for _ in 0..3 {
            match r.next_frame() {
                Ok(Some(body)) => { let _ = decode_body::<u64>(&body); }
                Ok(None) => {}
                Err(_) => break,
            }
            if feed_rest {
                r.extend(&frame[mid..]);
                feed_rest = false;
            }
        }
    }
}

/// Garbage blasted at a live server's listener must not take down service
/// for a well-behaved client on another connection — and must show up in
/// the `vrr_net_wire_decode_errors_total` counter.
#[test]
fn live_node_survives_socket_garbage() {
    let addrs = free_addrs(1).expect("reserve port");
    let cfg = StorageConfig::optimal(1, 0, 1);
    let topo = NodeTopology {
        objects: vec![0; cfg.s],
        addrs,
        slots: 1,
    };
    let node = NetNode::start(
        0,
        &topo,
        NetNodeConfig::<u64>::new(cfg, ProtocolKind::Regular),
    )
    .expect("start node");
    let addr = node.addr();

    let mut client = NetClient::<u64>::connect(addr).expect("connect");
    client.ping().expect("healthy before the attack");

    // Attack 1: an oversized length prefix.
    let mut evil = TcpStream::connect(addr).expect("attacker connects");
    evil.write_all(&u32::MAX.to_le_bytes()).ok();
    // Attack 2: a plausible length followed by garbage.
    let mut evil2 = TcpStream::connect(addr).expect("attacker connects");
    let mut frame = vec![0u8; 68];
    frame[..4].copy_from_slice(&64u32.to_le_bytes());
    for (i, b) in frame[4..].iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }
    evil2.write_all(&frame).ok();
    // Attack 3: raw noise with no framing at all.
    let mut evil3 = TcpStream::connect(addr).expect("attacker connects");
    evil3.write_all(&[0xAB; 1024]).ok();

    std::thread::sleep(Duration::from_millis(200));

    // The polite client still gets full service.
    client.ping().expect("healthy during the attack");
    node.host().write(0, 42);
    let report = node.host().read(0, 0);
    assert_eq!(report.value, Some(42));

    let text = client.metrics().expect("metrics still served");
    let errors: u64 = text
        .lines()
        .filter(|l| l.starts_with("vrr_net_wire_decode_errors_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert!(errors >= 1, "decode errors not counted; metrics:\n{text}");
}
