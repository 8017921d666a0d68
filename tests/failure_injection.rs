//! Hostile and degenerate inputs: the servers must degrade with error
//! replies, never panic, and the caches must stay consistent afterwards.

use ncache_repro::netbuf::{NetBuf, Segment};
use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

fn deliver_raw(rig: &mut NfsRig, bytes: Vec<u8>) -> NetBuf {
    let ledger = rig.ledgers().client.clone();
    let mut req = NetBuf::new(&ledger);
    req.append_segment(Segment::from_vec(bytes));
    rig.handle_raw(req)
}

#[test]
fn nfs_server_survives_garbage_datagrams() {
    for mode in ServerMode::ALL {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("ok", 8192);
        // Assorted garbage: empty, short, random bytes, truncated call.
        for bytes in [
            Vec::new(),
            vec![0u8; 3],
            vec![0xFF; 39],
            (0..200u16).map(|b| b as u8).collect::<Vec<u8>>(),
        ] {
            let reply = deliver_raw(&mut rig, bytes);
            assert!(reply.total_len() > 0, "{mode}: an error reply comes back");
        }
        // The server still works afterwards.
        if mode != ServerMode::Baseline {
            assert_eq!(rig.read(fh, 0, 4096), NfsRig::pattern(fh, 0, 4096), "{mode}");
        }
        assert!(rig.server_mut().stats().errors >= 4, "{mode}: errors counted");
    }
}

#[test]
fn nfs_server_rejects_truncated_bodies_per_procedure() {
    use ncache_repro::proto::rpc::RpcCall;
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    rig.create_file("ok", 8192);
    // A valid RPC call header followed by a body too short for the
    // procedure, for each procedure the server speaks.
    for proc in [1u32, 4, 6, 8] {
        let mut bytes = RpcCall::nfs(77, proc).encode().to_vec();
        bytes.extend_from_slice(&[0u8; 3]);
        let reply = deliver_raw(&mut rig, bytes);
        assert!(reply.total_len() > 0, "proc {proc}: error reply");
    }
    assert!(rig.server_mut().stats().errors >= 4);
}

#[test]
fn nfs_unknown_procedure_and_unknown_handle() {
    let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
    rig.create_file("ok", 8192);
    // Unknown procedure number.
    let mut bytes = ncache_repro::proto::rpc::RpcCall::nfs(9, 99)
        .encode()
        .to_vec();
    bytes.extend_from_slice(&[0u8; 64]);
    let reply = deliver_raw(&mut rig, bytes);
    assert!(reply.total_len() > 0);
    // Reads and attrs of a never-created handle error cleanly.
    let (hdr, data) = rig.read_with_header(0xDEAD, 0, 4096);
    assert_ne!(hdr.status, NFS_OK);
    assert!(data.is_empty());
    assert_ne!(rig.getattr(0xDEAD), NFS_OK);
}

#[test]
fn khttpd_survives_malformed_requests_in_every_mode() {
    for mode in ServerMode::ALL {
        let mut rig = KhttpdRig::new(mode, KhttpdRigParams::default());
        rig.publish("ok", 4096);
        let ledger = rig.ledgers().client.clone();
        for bytes in [
            b"".to_vec(),
            b"POST /x HTTP/1.0\r\n\r\n".to_vec(),
            b"GET\r\n\r\n".to_vec(),
            b"GET /ok HTTP/1.0".to_vec(), // truncated: no terminating CRLFCRLF
            b"GARBAGE".to_vec(),
            vec![0xFF; 100],
        ] {
            let mut req = NetBuf::new(&ledger);
            req.append_segment(Segment::from_vec(bytes));
            let delivered = ncache_repro::servers::stack::deliver(&req, &rig.ledgers().app);
            let response = rig.server_mut().handle_request(&delivered);
            assert!(response.total_len() > 0, "{mode}: a response (400) comes back");
        }
        assert!(rig.server_mut().stats().bad_requests >= 6, "{mode}");
        // Still serving real pages.
        let (hdr, body) = rig.get("/ok");
        assert_eq!(hdr.status, 200, "{mode}");
        if mode != ServerMode::Baseline {
            assert_eq!(body, rig.expected("ok", 4096), "{mode}");
        }
    }
}

#[test]
fn khttpd_mid_sendfile_eviction_falls_back_not_panics() {
    // An NCache too small to hold even one page: building the response
    // evicts its own earlier chunks, so by send time the placeholders no
    // longer resolve and the server must fall back to the copying path.
    let params = KhttpdRigParams {
        ncache_bytes: 2 * (4096 + 128),
        ..KhttpdRigParams::default()
    };
    for mode in ServerMode::ALL {
        let mut rig = KhttpdRig::new(mode, params);
        rig.publish("big.html", 64 << 10);
        rig.publish("other.html", 32 << 10);
        for round in 0..4 {
            for (page, len) in [("/big.html", 64u64 << 10), ("/other.html", 32u64 << 10)] {
                let (hdr, body) = rig.get(page);
                assert_eq!(hdr.status, 200, "{mode} round {round} {page}");
                assert_eq!(hdr.content_length, len);
                if mode != ServerMode::Baseline {
                    assert_eq!(
                        body,
                        rig.expected(&page[1..], len),
                        "{mode} round {round} {page}: eviction fallback serves real bytes"
                    );
                }
            }
        }
        // Requests for pages that vanish under pressure still error cleanly.
        let (hdr, _) = rig.get("/nope.html");
        assert_eq!(hdr.status, 404, "{mode}");
    }
}

#[test]
fn write_beyond_volume_capacity_errors_cleanly() {
    // A tiny volume: a huge write must produce an NFS error reply, and the
    // server keeps serving afterwards.
    let params = NfsRigParams {
        volume_blocks: 700,
        fs_cache_blocks: 64,
        inode_count: 64,
        ..NfsRigParams::default()
    };
    for mode in [ServerMode::Original, ServerMode::NCache] {
        let mut rig = NfsRig::new(mode, params);
        let fh = rig.create_file("small", 4096);
        // Write far more than the volume can hold, block by block.
        let mut failed = false;
        for blk in 0..1500u32 {
            let reply = rig.write(fh, blk * 4096, &vec![1u8; 4096]);
            if reply.status != NFS_OK {
                failed = true;
                break;
            }
        }
        assert!(failed, "{mode}: the volume must fill eventually");
        // Earlier data still reads back.
        let got = rig.read(fh, 0, 4096);
        assert_eq!(got.len(), 4096, "{mode}: server still serves");
    }
}

#[test]
fn ncache_under_extreme_memory_pressure_stays_correct() {
    // An NCache so small it can hold only two chunks: constant admission
    // failures and fallbacks, but every byte the client sees is right.
    let params = NfsRigParams {
        ncache_bytes: 2 * (4096 + 128),
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    let fh = rig.create_file("tight", 256 << 10);
    for blk in 0..64u32 {
        let got = rig.read(fh, blk * 4096, 4096);
        assert_eq!(
            got,
            NfsRig::pattern(fh, u64::from(blk) * 4096, 4096),
            "block {blk}"
        );
    }
    // Writes under the same pressure.
    for blk in (0..64u32).step_by(7) {
        let data = vec![blk as u8; 4096];
        rig.write(fh, blk * 4096, &data);
        assert_eq!(rig.read(fh, blk * 4096, 4096), data, "block {blk}");
    }
}

#[test]
fn writes_to_bogus_handles_pin_nothing_in_ncache() {
    // An aligned NCache WRITE parks its blocks in the FHO cache before the
    // file system resolves the handle. When the handle names no regular
    // file (a never-created inode, or the root directory), no placeholder
    // will ever name those dirty chunks, so no flush can remap them: they
    // must be dropped with the error reply, or a stream of such requests
    // fills NCache for good and a later valid WRITE loses its zero-copy
    // path. The cache holds 16 chunks; the bogus writes park 400.
    let params = NfsRigParams {
        ncache_bytes: 16 * (4096 + 128),
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    let fh = rig.create_file("real", 32 << 10);
    let module = rig.module().expect("NCache build");
    let baseline = module.borrow().pinned_bytes();
    for i in 0..50u32 {
        let bogus = if i % 2 == 0 { 0xDEAD } else { 0 };
        let reply = rig.write(bogus, (i % 4) * (32 << 10), &[i as u8; 32 << 10]);
        assert_ne!(reply.status, NFS_OK, "write {i} to handle {bogus:#x}");
        assert_eq!(
            module.borrow().pinned_bytes(),
            baseline,
            "write {i} to handle {bogus:#x} left chunks pinned"
        );
    }
    let data = vec![0x5A; 32 << 10];
    let before = rig.ledgers().app.snapshot();
    assert_eq!(rig.write(fh, 0, &data).status, NFS_OK);
    assert_eq!(
        rig.ledgers()
            .app
            .snapshot()
            .delta_since(&before)
            .payload_copies,
        0,
        "the valid write is admitted zero-copy"
    );
    assert_eq!(rig.read(fh, 0, 32 << 10), data);
}

#[global_allocator]
static ALLOC: check::alloc::Counting = check::alloc::Counting;

#[test]
fn read_with_hostile_count_is_sized_by_the_file() {
    // A READ asking for u32::MAX bytes: every path that serves it (the
    // copying server, the logical paths, the unaligned NCache and
    // baseline paths, and NCache's fallback after its chunks vanish)
    // must report the file's length from the offset on and return its
    // bytes, and no allocation may be sized by the request's count.
    //
    // The payload of the NCache fallback is not checked: that path copies
    // the refetched *placeholders* into one buffer, and the transmit hook
    // then replaces the whole buffer with the first block's chunk, so a
    // multi-block fallback reply carries one block. That defect predates
    // the bounded read and is tracked separately.
    const SIZE: u64 = 5 * 4096 + 100;
    for mode in ServerMode::ALL {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("f", SIZE);
        let mut cases = vec![("aligned", 0u32), ("unaligned", 100)];
        if mode == ServerMode::NCache {
            cases.push(("fallback", 0));
        }
        for (path, offset) in cases {
            if path == "fallback" {
                // Drop every chunk the file's placeholders point at, so the
                // next READ finds them dangling and copies instead.
                let module = rig.module().expect("NCache build");
                let mut m = module.borrow_mut();
                for key in m.cache_mut().clean_keys() {
                    m.cache_mut().invalidate(key);
                }
            }
            let req = rig.client_mut().read_request(fh, offset, u32::MAX);
            let (reply, counts) = check::alloc::measure(|| rig.handle_raw(req));
            let (hdr, data) = rig.client_mut().parse_read_reply(&reply);
            let want = (SIZE - u64::from(offset)) as usize;
            assert_eq!(hdr.status, NFS_OK, "{mode} {path}");
            assert_eq!(
                hdr.count as usize, want,
                "{mode} {path}: count clipped at EOF"
            );
            if path != "fallback" {
                assert_eq!(data.len(), want, "{mode} {path}");
            }
            if path != "fallback" && mode != ServerMode::Baseline {
                assert_eq!(
                    data,
                    NfsRig::pattern(fh, u64::from(offset), want),
                    "{mode} {path}: the file's bytes"
                );
            }
            assert!(
                counts.largest <= SIZE,
                "{mode} {path}: a {}-byte allocation for a {SIZE}-byte file",
                counts.largest
            );
            assert!(
                counts.bytes <= 3 * SIZE,
                "{mode} {path}: {} bytes allocated for a {SIZE}-byte file",
                counts.bytes
            );
        }
    }
}
