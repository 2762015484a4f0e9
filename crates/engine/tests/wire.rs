//! Wire-protocol tests: roundtrips (fuzz-style via the proptest shim),
//! malformed/truncated frame rejection, buffered stream framing, the
//! byte-exact worked example from `docs/PROTOCOL.md`, and the server
//! loop end-to-end over in-memory streams.

use pir_core::{PrivIncReg1Config, PrivIncReg2Config, TauRule};
use pir_dp::PrivacyParams;
use pir_engine::wire::{
    self, decode_command, decode_reply, encode_command, encode_reply, read_command, read_reply,
    FrameReader, WireError, BUFFER_SIZE, HEADER_LEN,
};
use pir_engine::{
    serve_connection, Command, EngineError, EngineHandle, IngressConfig, LossSpec, MechanismSpec,
    Reply, SetSpec, SolverSpec,
};
use pir_erm::DataPoint;
use proptest::prelude::*;
use std::io::Read;

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

/// Build one of the encodable spec shapes from fuzz inputs.
fn spec_from(tag: usize, dim: usize, radius: f64) -> MechanismSpec {
    let set = match tag % 4 {
        0 => SetSpec::L2Ball { dim, radius },
        1 => SetSpec::L1Ball { dim, radius },
        2 => SetSpec::LinfBall { dim, radius },
        _ => SetSpec::Simplex { dim, scale: radius },
    };
    match tag % 5 {
        0 => MechanismSpec::Erm {
            set,
            loss: match tag % 3 {
                0 => LossSpec::Squared,
                1 => LossSpec::Logistic,
                _ => LossSpec::RegularizedSquared { lambda: radius },
            },
            solver: match tag % 3 {
                0 => SolverSpec::NoisyGd { iters: dim + 1, beta: 0.1 },
                1 => SolverSpec::OutputPerturbation { exact_iters: dim + 2 },
                _ => SolverSpec::FrankWolfe { iters: dim + 3 },
            },
            tau: match tag % 4 {
                0 => TauRule::Fixed(dim + 1),
                1 => TauRule::Convex,
                2 => TauRule::StronglyConvex,
                _ => TauRule::LowWidth,
            },
        },
        1 => MechanismSpec::Reg1 {
            set,
            config: PrivIncReg1Config {
                beta: radius / 10.0,
                max_pgd_iters: dim + 5,
                warm_start: tag.is_multiple_of(2),
                ..Default::default()
            },
        },
        2 => MechanismSpec::Reg2 {
            set,
            domain_width: radius + 1.0,
            config: PrivIncReg2Config {
                gamma: tag.is_multiple_of(2).then_some(radius / 8.0),
                m_override: tag.is_multiple_of(3).then_some(dim + 2),
                lift_iters: dim + 9,
                ..Default::default()
            },
        },
        3 => MechanismSpec::Trivial { set },
        _ => MechanismSpec::ExactOracle { set },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Commands survive an encode → decode roundtrip exactly. (Specs
    /// carry no `Eq`; the Debug rendering prints every field with f64
    /// shortest-roundtrip precision, so string equality is field
    /// equality.)
    #[test]
    fn command_roundtrip(
        tag in 0usize..60,
        sid in any::<u64>(),
        dim in 1usize..9,
        radius in 0.25f64..4.0,
        t_max in 1usize..1000,
        n_points in 0usize..5,
        coord in -0.9f64..0.9,
    ) {
        let point = DataPoint::new(vec![coord; dim], coord / 2.0);
        let commands = vec![
            Command::Open {
                session_id: sid,
                spec: spec_from(tag, dim, radius),
                t_max,
                params: params(),
            },
            Command::Observe { session_id: sid, point: point.clone() },
            Command::ObserveBatch { session_id: sid, points: vec![point; n_points] },
            Command::Release { session_id: sid },
            Command::Close,
        ];
        for cmd in &commands {
            let bytes = encode_command(cmd).unwrap();
            let back = decode_command(&bytes).unwrap();
            prop_assert_eq!(format!("{cmd:?}"), format!("{back:?}"));
        }
    }

    /// Replies survive an encode → decode roundtrip exactly.
    #[test]
    fn reply_roundtrip(
        sid in any::<u64>(),
        dim in 1usize..9,
        n in 0usize..4,
        v in -2.0f64..2.0,
        pts in 0usize..50,
    ) {
        let replies = vec![
            Reply::Opened { session_id: sid },
            Reply::Releases { session_id: sid, thetas: vec![vec![v; dim]; n] },
            Reply::SessionReleased {
                session_id: sid,
                points: pts as u64,
                epsilon_spent: v.abs(),
                delta_spent: 1e-6,
            },
            Reply::Closed,
            Reply::Err(EngineError::UnknownSession { id: sid }),
            Reply::Err(EngineError::DuplicateSession { id: sid }),
            Reply::Err(EngineError::InvalidConfig { reason: format!("bad {v}") }),
            Reply::Err(EngineError::Mechanism { reason: format!("mech {v}") }),
            Reply::Err(EngineError::Budget { reason: "over".to_string() }),
            Reply::Err(EngineError::Backpressure { shard: n, depth: pts, capacity: dim, cost: 1 }),
            Reply::Err(EngineError::CommandTooLarge { shard: n, cost: pts, capacity: dim }),
            Reply::Err(EngineError::Closed),
        ];
        for reply in &replies {
            let bytes = encode_reply(reply).unwrap();
            let back = decode_reply(&bytes).unwrap();
            prop_assert_eq!(reply, &back);
        }
    }

    /// Every strict prefix of a valid frame is rejected as truncated —
    /// never mis-decoded, never accepted.
    #[test]
    fn truncated_frames_are_rejected(cut in 0usize..48) {
        let cmd = Command::Observe {
            session_id: 7,
            point: DataPoint::new(vec![0.5, 0.25], 0.125),
        };
        let bytes = encode_command(&cmd).unwrap();
        prop_assert!(cut < bytes.len());
        let truncated = &bytes[..cut];
        match decode_command(truncated) {
            Err(WireError::Truncated { .. }) => {}
            other => prop_assert!(false, "prefix of len {} gave {:?}", cut, other),
        }
    }
}

#[test]
fn worked_example_bytes_match_protocol_md() {
    // The byte-level example in docs/PROTOCOL.md, pinned exactly:
    // Observe { session_id: 7, point: { x: [0.5, 0.25], y: 0.125 } }.
    let cmd = Command::Observe { session_id: 7, point: DataPoint::new(vec![0.5, 0.25], 0.125) };
    let bytes = encode_command(&cmd).unwrap();
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        // header
        0x50, 0x49, 0x52, 0x57,                         // magic "PIRW"
        0x01,                                           // version 1
        0x02,                                           // opcode OBSERVE
        0x00, 0x00,                                     // reserved
        0x24, 0x00, 0x00, 0x00,                         // payload length 36
        // payload
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // session id 7
        0x02, 0x00, 0x00, 0x00,                         // dim 2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, // x[0] = 0.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F, // x[1] = 0.25
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x3F, // y    = 0.125
    ];
    assert_eq!(bytes, expected);
}

/// `decode_command` of one whole frame, asserted to agree with a
/// [`FrameReader`] reading the same bytes off a stream.
fn decode_checked(frame: &[u8]) -> Result<Command, WireError> {
    let direct = decode_command(frame);
    match (&direct, FrameReader::new(frame).read_command()) {
        (Ok(a), Ok(Some(b))) => {
            assert_eq!(encode_command(a).unwrap(), encode_command(&b).unwrap())
        }
        (Err(a), Err(b)) => assert_eq!(a, &b),
        (a, b) => panic!("decode_command gave {a:?}, FrameReader gave {b:?}"),
    }
    direct
}

#[test]
fn malformed_frames_are_rejected_distinctly() {
    let valid = encode_command(&Command::Release { session_id: 1 }).unwrap();

    // Bad magic.
    let mut bad = valid.clone();
    bad[0] = b'X';
    assert!(matches!(decode_checked(&bad), Err(WireError::BadMagic(_))));

    // Unsupported version.
    let mut bad = valid.clone();
    bad[4] = 2;
    assert!(matches!(decode_checked(&bad), Err(WireError::UnsupportedVersion(2))));

    // Unknown opcode (and a reply opcode on the command channel).
    let mut bad = valid.clone();
    bad[5] = 0x6E;
    assert!(matches!(decode_checked(&bad), Err(WireError::UnknownOpcode(0x6E))));
    let reply_frame = encode_reply(&Reply::Closed).unwrap();
    assert!(matches!(decode_checked(&reply_frame), Err(WireError::UnknownOpcode(0x85))));

    // Non-zero reserved bytes.
    let mut bad = valid.clone();
    bad[6] = 1;
    assert!(matches!(decode_checked(&bad), Err(WireError::NonZeroReserved(1))));

    // Length field pointing past the payload cap.
    let mut bad = valid.clone();
    bad[8..12].copy_from_slice(&(wire::MAX_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        decode_checked(&bad),
        Err(WireError::FrameTooLarge { len }) if len == wire::MAX_PAYLOAD + 1
    ));

    // Payload longer than the opcode's encoding consumes.
    let mut bad = valid.clone();
    bad.push(0xAB);
    bad[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(decode_checked(&bad), Err(WireError::TrailingBytes { extra: 1 })));

    // Bad tag inside a structurally complete payload.
    let open = encode_command(&Command::Open {
        session_id: 1,
        spec: MechanismSpec::reg1_l2(2),
        t_max: 8,
        params: params(),
    })
    .unwrap();
    let mut bad = open.clone();
    let spec_tag_offset = HEADER_LEN + 8 + 8 + 16; // sid + t_max + params
    bad[spec_tag_offset] = 9;
    assert!(matches!(decode_checked(&bad), Err(WireError::Malformed(_))));

    // Invalid privacy parameters are a payload error, not a panic.
    let mut bad = open;
    let eps_offset = HEADER_LEN + 16;
    bad[eps_offset..eps_offset + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
    assert!(matches!(decode_checked(&bad), Err(WireError::Malformed(_))));
}

#[test]
fn custom_set_factories_are_unencodable() {
    use std::sync::Arc;
    let spec = MechanismSpec::Trivial {
        set: SetSpec::Custom(Arc::new(|| {
            Box::new(pir_geometry::L2Ball::unit(2)) as Box<dyn pir_geometry::ConvexSet>
        })),
    };
    let cmd = Command::Open { session_id: 1, spec, t_max: 8, params: params() };
    assert!(matches!(encode_command(&cmd), Err(WireError::Unencodable(_))));
}

#[test]
fn hostile_element_counts_cannot_force_huge_allocations() {
    // A structurally valid header whose payload *claims* u32::MAX points
    // (or a u32::MAX-dimensional point / release) but carries almost no
    // bytes. Decoding must fail as Truncated without ever allocating
    // for the claimed count — this is what keeps the 64 MiB frame cap an
    // actual memory bound.
    let mut frame = vec![];
    frame.extend_from_slice(b"PIRW");
    frame.push(1); // version
    frame.push(0x03); // OBSERVE_BATCH
    frame.extend_from_slice(&[0, 0]); // reserved
    let payload: Vec<u8> =
        [7u64.to_le_bytes().as_slice(), u32::MAX.to_le_bytes().as_slice()].concat();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(decode_command(&frame), Err(WireError::Truncated { .. })));

    // Same shape on the reply channel: RELEASES claiming u32::MAX thetas.
    let mut frame = vec![];
    frame.extend_from_slice(b"PIRW");
    frame.push(1);
    frame.push(0x82); // R_RELEASES
    frame.extend_from_slice(&[0, 0]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(decode_reply(&frame), Err(WireError::Truncated { .. })));

    // And a single point claiming a u32::MAX dimension.
    let mut frame = vec![];
    frame.extend_from_slice(b"PIRW");
    frame.push(1);
    frame.push(0x02); // OBSERVE
    frame.extend_from_slice(&[0, 0]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(decode_command(&frame), Err(WireError::Truncated { .. })));
}

/// A stream that hands out its bytes a few at a time, cycling through
/// `chunks` for the size of each `read`.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Command frames on both sides of the read buffer's size, with an
/// OBSERVE_BATCH frame of more than 64 KiB between small ones.
fn mixed_frames() -> Vec<Vec<u8>> {
    let pt = |i: usize| DataPoint::new(vec![i as f64 / 2048.0; 8], 0.5);
    let commands = [
        Command::Open {
            session_id: 1,
            spec: MechanismSpec::reg1_l2(8),
            t_max: 4096,
            params: params(),
        },
        Command::Observe { session_id: 1, point: pt(0) },
        Command::ObserveBatch { session_id: 1, points: (0..1200).map(pt).collect() },
        Command::Observe { session_id: 1, point: pt(1) },
        Command::Release { session_id: 1 },
        Command::Close,
    ];
    let frames: Vec<Vec<u8>> = commands.iter().map(|c| encode_command(c).unwrap()).collect();
    assert!(frames.iter().any(|f| f.len() > 64 << 10) && frames.iter().any(|f| f.len() < 64));
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `FrameReader` decodes every frame to what `decode_command` makes
    /// of it — whether the stream delivers everything at once or 1-7
    /// bytes per `read`, and for frames larger than its read buffer.
    #[test]
    fn frame_reader_decodes_like_decode_command(chunks in prop::collection::vec(1usize..8, 1..16)) {
        let frames = mixed_frames();
        let stream = frames.concat();
        let mut whole = FrameReader::new(&stream[..]);
        let mut trickled = FrameReader::new(Trickle { bytes: &stream, chunks: &chunks, reads: 0 });
        for frame in &frames {
            let want = encode_command(&decode_command(frame).unwrap()).unwrap();
            let got = whole.read_command().unwrap().unwrap();
            prop_assert_eq!(&encode_command(&got).unwrap(), &want);
            let got = trickled.read_command().unwrap().unwrap();
            prop_assert_eq!(&encode_command(&got).unwrap(), &want);
        }
        prop_assert!(whole.read_command().unwrap().is_none());
        prop_assert!(trickled.read_command().unwrap().is_none());
    }
}

/// EOF inside a frame — in its header, at the header's end, in its
/// payload, past the read buffer's size — is `Truncated` after every
/// whole frame before it decodes; EOF between frames is a clean `None`.
#[test]
fn frame_reader_reports_mid_frame_eof_as_truncated() {
    let frames = mixed_frames();
    let stream = frames.concat();
    let mut start = 0;
    for (whole, frame) in frames.iter().enumerate() {
        let cuts =
            [1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1, BUFFER_SIZE + 3, frame.len() - 1];
        for cut in cuts.into_iter().filter(|&c| c < frame.len()) {
            let prefix = &stream[..start + cut];
            let mut readers = [
                FrameReader::new(Trickle { bytes: prefix, chunks: &[usize::MAX], reads: 0 }),
                FrameReader::new(Trickle { bytes: prefix, chunks: &[3, 7, 1], reads: 0 }),
            ];
            for r in &mut readers {
                for _ in 0..whole {
                    assert!(r.read_command().unwrap().is_some());
                }
                match r.read_command() {
                    Err(WireError::Truncated { .. }) => {}
                    other => panic!("EOF {cut} bytes into frame {whole} gave {other:?}"),
                }
            }
        }
        start += frame.len();
        let mut r = FrameReader::new(&stream[..start]);
        for _ in 0..=whole {
            assert!(r.read_command().unwrap().is_some());
        }
        assert!(r.read_command().unwrap().is_none(), "EOF after frame {whole} is clean");
    }
}

#[test]
fn stream_reader_distinguishes_eof_from_truncation() {
    let frame = encode_command(&Command::Release { session_id: 3 }).unwrap();

    // Clean EOF between frames → None.
    let mut empty: &[u8] = &[];
    assert!(read_command(&mut empty).unwrap().is_none());

    // Two whole frames read back-to-back.
    let mut two = Vec::new();
    two.extend_from_slice(&frame);
    two.extend_from_slice(&frame);
    let mut r: &[u8] = &two;
    assert!(read_command(&mut r).unwrap().is_some());
    assert!(read_command(&mut r).unwrap().is_some());
    assert!(read_command(&mut r).unwrap().is_none());

    // EOF mid-frame → Truncated, not None.
    let mut cut: &[u8] = &frame[..frame.len() - 2];
    assert!(matches!(read_command(&mut cut), Err(WireError::Truncated { .. })));
}

#[test]
fn server_loop_matches_direct_engine_over_in_memory_streams() {
    // A full client conversation rendered to bytes, served, and checked
    // against the direct (unpipelined) engine.
    let seed = 4242;
    let d = 3;
    let spec = MechanismSpec::reg1_l2(d);
    let pt = |t: usize| {
        let mut x = vec![0.0; d];
        x[t % d] = 0.7;
        DataPoint::new(x, 0.2)
    };

    let mut request = Vec::new();
    let commands = vec![
        Command::Open { session_id: 1, spec: spec.clone(), t_max: 16, params: params() },
        Command::Open { session_id: 2, spec: spec.clone(), t_max: 16, params: params() },
        Command::Observe { session_id: 1, point: pt(0) },
        Command::ObserveBatch { session_id: 2, points: vec![pt(0), pt(1)] },
        Command::Observe { session_id: 99, point: pt(0) }, // unknown → error reply
        Command::Release { session_id: 1 },
        Command::Close,
    ];
    for cmd in &commands {
        wire::write_command(&mut request, cmd).unwrap();
    }

    let handle = EngineHandle::new(IngressConfig { num_shards: 2, seed, queue_depth: 64 }).unwrap();
    let mut reader: &[u8] = &request;
    let mut response = Vec::new();
    let stats = serve_connection(&handle, &mut reader, &mut response).unwrap();
    assert_eq!(stats.commands, commands.len());
    assert_eq!(stats.replies, commands.len());
    handle.close();

    // Decode the reply stream (strictly one reply per command, in order).
    let mut replies = Vec::new();
    let mut r: &[u8] = &response;
    while let Some(reply) = read_reply(&mut r).unwrap() {
        replies.push(reply);
    }
    assert_eq!(replies.len(), commands.len());

    // Expected releases from a direct engine with the same seed.
    let mut direct = pir_engine::ShardedEngine::new(pir_engine::EngineConfig {
        num_shards: 1,
        seed,
        parallel: false,
    })
    .unwrap();
    direct.spawn_sessions([1, 2], &spec, 16, &params()).unwrap();

    assert_eq!(replies[0], Reply::Opened { session_id: 1 });
    assert_eq!(replies[1], Reply::Opened { session_id: 2 });
    assert_eq!(
        replies[2],
        Reply::Releases { session_id: 1, thetas: vec![direct.observe(1, &pt(0)).unwrap()] }
    );
    assert_eq!(
        replies[3],
        Reply::Releases {
            session_id: 2,
            thetas: direct.observe_batch(2, &[pt(0), pt(1)]).unwrap()
        }
    );
    assert_eq!(replies[4], Reply::Err(EngineError::UnknownSession { id: 99 }));
    match &replies[5] {
        Reply::SessionReleased { session_id: 1, points: 1, .. } => {}
        other => panic!("expected SessionReleased for session 1, got {other:?}"),
    }
    assert_eq!(replies[6], Reply::Closed);
}

#[test]
fn server_survives_engine_errors_but_aborts_on_protocol_errors() {
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 1, seed: 5, queue_depth: 2 }).unwrap();

    // An engine error (oversized batch → permanent too-large rejection)
    // is a reply, not a connection abort.
    let mut request = Vec::new();
    wire::write_command(
        &mut request,
        &Command::ObserveBatch {
            session_id: 1,
            points: (0..3).map(|_| DataPoint::new(vec![0.1], 0.0)).collect(),
        },
    )
    .unwrap();
    let mut reader: &[u8] = &request;
    let mut response = Vec::new();
    let stats = serve_connection(&handle, &mut reader, &mut response).unwrap();
    assert_eq!(stats, pir_engine::ServeStats { commands: 1, replies: 1 });
    let mut r: &[u8] = &response;
    match read_reply(&mut r).unwrap().unwrap() {
        Reply::Err(EngineError::CommandTooLarge { cost: 3, capacity: 2, .. }) => {}
        other => panic!("expected a too-large rejection reply, got {other:?}"),
    }

    // A protocol error (garbage bytes) aborts the connection.
    let mut garbage: &[u8] = b"NOT A FRAME AT ALL";
    let mut out = Vec::new();
    assert!(matches!(
        serve_connection(&handle, &mut garbage, &mut out),
        Err(WireError::BadMagic(_))
    ));
    handle.close();
}
