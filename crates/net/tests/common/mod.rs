//! Shared by the `vrr-net` test binaries: the seeded generator their
//! schedules draw from, the `--addrs` rendering, keyed writes and reads
//! on one client connection, and a fake store node's side of one
//! connection (each binary compiles this module for itself, and not every
//! one uses every item).
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use vrr_core::Timestamp;
use vrr_net::frame::{decode_body, encode_frame, Ctl, Envelope, FrameReader, Payload};
use vrr_net::{NetClient, Op, Rsp};

/// `WriteKey` of `value` to `key`: the timestamp it took. Any answer but
/// `Wrote` fails the test, naming `what`.
pub fn write_key(client: &mut NetClient<u64>, key: &[u8], value: u64, what: &str) -> Timestamp {
    let key = key.to_vec();
    match client.request(Op::WriteKey { key, value }) {
        Ok(Rsp::Wrote { ts, .. }) => ts,
        other => panic!("{what}: {other:?}"),
    }
}

/// `ReadKey` of `key` at reader 0: the value read. Any answer but `ReadOk`
/// fails the test, naming `what`.
pub fn read_key(client: &mut NetClient<u64>, key: &[u8], what: &str) -> Option<u64> {
    let key = key.to_vec();
    match client.request(Op::ReadKey { key, reader: 0 }) {
        Ok(Rsp::ReadOk { value, .. }) => value,
        other => panic!("{what}: {other:?}"),
    }
}

/// Answers one connection as a store-hosting `vrr-server` would, with
/// `answer(op)` for each request — or hangs up on the first request when
/// `hang_up`. Returns when the client goes away.
pub fn serve(mut stream: TcpStream, hang_up: bool, answer: impl Fn(Op<u64>) -> Rsp<u64>) {
    let (mut reader, mut buf) = (FrameReader::new(), [0u8; 4096]);
    loop {
        while let Some(body) = reader.next_frame().expect("framing") {
            let env: Envelope<u64> = decode_body(&body).expect("a client frame");
            let Payload::Ctl(Ctl::Request { id, op }) = env.payload else {
                continue;
            };
            if hang_up {
                return;
            }
            let rsp = answer(op);
            let env = Envelope::<u64> {
                source: 0,
                epoch: 0,
                seq: id,
                payload: Payload::Ctl(Ctl::Response { id, rsp }),
            };
            stream.write_all(&encode_frame(&env)).expect("respond");
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => reader.extend(&buf[..n]),
        }
    }
}

/// SplitMix64: deterministic schedules and structures per seed.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// `addrs` as the value of `--addrs`.
pub fn addr_list(addrs: &[SocketAddr]) -> String {
    let addrs: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    addrs.join(",")
}
