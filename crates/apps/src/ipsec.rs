//! The IPsec encryption gateway: ESP transport-mode encapsulation with
//! AES-128-CTR encryption and HMAC-SHA1 (96-bit) authentication.
//!
//! Pipeline shape (Figure 8c): after routing, `IPsecESPEncap` rewrites the
//! packet layout and headers, then the two offloadable crypto elements
//! transform the payload:
//!
//! ```text
//! [eth 14][ip 20][esp hdr 8][iv 16][ciphertext (payload+pad+trailer)][icv 12]
//! ```
//!
//! Security associations are selected per destination /8 and their cipher
//! and MAC contexts are precomputed at table build — the paper's trick of
//! initializing OpenSSL envelope contexts for all flows on startup and only
//! swapping IVs on the data path.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use nba_core::batch::{Anno, PacketResult};
use nba_core::element::{
    ComputeMode, DbInput, DbOutput, Disposition, ElemCtx, Element, ElementEffects, HeaderFact,
    Kernel, KernelIo, OffloadSpec, Postprocess,
};
use nba_crypto::{Aes128Ctr, HmacSha1};
use nba_io::proto::esp::{
    padded_plaintext_len, write_header, ESP_HDR_LEN, ESP_ICV_LEN, ESP_IV_LEN, ESP_TRAILER_LEN,
};
use nba_io::proto::ether::ETHER_HDR_LEN;
use nba_io::proto::{ipv4, IPPROTO_ESP};
use nba_io::Packet;
use nba_sim::{CpuProfile, GpuProfile};

/// Offset of the IPv4 header in the frame.
const IP_OFF: usize = ETHER_HDR_LEN;
/// Offset of the ESP header (fixed 20-byte IPv4 header, transport mode).
const ESP_OFF: usize = IP_OFF + 20;
/// Offset of the IV.
const IV_OFF: usize = ESP_OFF + ESP_HDR_LEN;
/// Offset of the ciphertext.
const CT_OFF: usize = IV_OFF + ESP_IV_LEN;

/// One security association with precomputed crypto contexts.
pub struct SecurityAssoc {
    /// Security parameter index.
    pub spi: u32,
    /// AES-128 key.
    pub aes_key: [u8; 16],
    /// HMAC-SHA1 key.
    pub hmac_key: [u8; 20],
    cipher: Aes128Ctr,
    mac: HmacSha1,
}

/// The SA database: one association per destination /8.
pub struct SaTable {
    sas: Vec<SecurityAssoc>,
}

impl SaTable {
    /// Builds 256 associations with keys derived from `seed`.
    pub fn new(seed: u64) -> SaTable {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sas = (0..256)
            .map(|i| {
                let mut aes_key = [0u8; 16];
                let mut hmac_key = [0u8; 20];
                rng.fill(&mut aes_key);
                rng.fill(&mut hmac_key);
                SecurityAssoc {
                    spi: 0x1000_0000 | i,
                    aes_key,
                    hmac_key,
                    cipher: Aes128Ctr::new(&aes_key),
                    mac: HmacSha1::new(&hmac_key),
                }
            })
            .collect();
        SaTable { sas }
    }

    /// The association for an IPv4 destination (keyed by the top octet).
    pub fn for_dst(&self, dst: u32) -> &SecurityAssoc {
        &self.sas[(dst >> 24) as usize]
    }

    /// The association registered under an SPI, if any.
    pub fn by_spi(&self, spi: u32) -> Option<&SecurityAssoc> {
        self.sas.get((spi & 0xff) as usize).filter(|s| s.spi == spi)
    }
}

impl std::fmt::Debug for SaTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SaTable({} SAs)", self.sas.len())
    }
}

/// Derives the per-packet CTR IV from (spi, seq), as the encapsulator
/// writes it and both crypto paths read it back from the packet.
fn derive_iv(spi: u32, seq: u32) -> [u8; 16] {
    let mut iv = [0u8; 16];
    iv[0..4].copy_from_slice(&spi.to_be_bytes());
    iv[4..8].copy_from_slice(&seq.to_be_bytes());
    iv[8..12].copy_from_slice(&(!spi).to_be_bytes());
    // Leave the low 4 bytes zero: CTR's block counter space.
    iv
}

/// Rewrites the packet into ESP layout (headers + padding + zeroed ICV);
/// the payload is still plaintext until `IPsecAES` runs.
pub struct IPsecESPEncap {
    sa: Arc<SaTable>,
    seq: u32,
}

impl IPsecESPEncap {
    /// Creates the encapsulator over a shared SA table.
    pub fn new(sa: Arc<SaTable>) -> IPsecESPEncap {
        IPsecESPEncap { sa, seq: 0 }
    }
}

impl Element for IPsecESPEncap {
    fn class_name(&self) -> &'static str {
        "IPsecESPEncap"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        let len = pkt.len();
        if len < ESP_OFF {
            return PacketResult::Drop;
        }
        let payload_len = len - ESP_OFF;
        let padded = padded_plaintext_len(payload_len);
        let grow = (ESP_HDR_LEN + ESP_IV_LEN) + (padded - payload_len) + ESP_ICV_LEN;
        if pkt.buf_mut().append(grow).is_none() {
            return PacketResult::Drop;
        }
        let frame = pkt.data_mut();
        let dst = u32::from_be_bytes(frame[IP_OFF + 16..IP_OFF + 20].try_into().unwrap());
        let assoc = self.sa.for_dst(dst);
        self.seq = self.seq.wrapping_add(1);

        let old_proto = frame[IP_OFF + 9];
        // Shift the payload behind the ESP header + IV.
        frame.copy_within(ESP_OFF..ESP_OFF + payload_len, CT_OFF);
        write_header(&mut frame[ESP_OFF..], assoc.spi, self.seq);
        frame[IV_OFF..IV_OFF + ESP_IV_LEN].copy_from_slice(&derive_iv(assoc.spi, self.seq));
        // RFC 4303 monotonic padding, then pad length + next header.
        let pad_len = padded - payload_len - ESP_TRAILER_LEN;
        for (k, b) in frame[CT_OFF + payload_len..CT_OFF + payload_len + pad_len]
            .iter_mut()
            .enumerate()
        {
            *b = (k + 1) as u8;
        }
        frame[CT_OFF + padded - 2] = pad_len as u8;
        frame[CT_OFF + padded - 1] = old_proto;
        // ICV space stays zero until IPsecAuthHMAC fills it.
        let total = frame.len();
        for b in &mut frame[total - ESP_ICV_LEN..] {
            *b = 0;
        }
        // Rewrite the IP header: new length, ESP protocol, fresh checksum.
        let ip_len = (total - IP_OFF) as u16;
        frame[IP_OFF + 2..IP_OFF + 4].copy_from_slice(&ip_len.to_be_bytes());
        frame[IP_OFF + 9] = IPPROTO_ESP;
        ipv4::write_checksum(&mut frame[IP_OFF..], 20);
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Header surgery plus the payload shift.
        CpuProfile {
            fixed_cycles: 170,
            cycles_per_byte: 0.25,
        }
    }

    // Rewrites IP header fields in place: needs a validated IPv4 packet.
    // Buffer-exhausted or runt packets drop.
    fn effects(&self) -> ElementEffects {
        const REQ: &[HeaderFact] = &[HeaderFact::Ipv4Valid];
        ElementEffects {
            requires: REQ,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

impl std::fmt::Debug for IPsecESPEncap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IPsecESPEncap(seq = {})", self.seq)
    }
}

/// The kernel of an in-place element: each staged item lands in its output
/// range and `apply` (the function the CPU path runs on the packet) runs
/// there.
fn in_place_kernel(sa: Arc<SaTable>, apply: fn(&SaTable, &mut [u8])) -> Kernel {
    Arc::new(move |io: KernelIo<'_>| {
        for i in 0..io.items {
            let (item, r) = (io.item_in(i), io.item_out_range(i));
            let out = &mut io.output[r];
            out.copy_from_slice(item);
            apply(&sa, out);
        }
    })
}

/// Encrypts the ESP payload in place with AES-128-CTR (offloadable).
pub struct IPsecAES {
    sa: Arc<SaTable>,
}

impl IPsecAES {
    /// Creates the cipher element over a shared SA table.
    pub fn new(sa: Arc<SaTable>) -> IPsecAES {
        IPsecAES { sa }
    }
}

/// Applies the CTR keystream to one ESP-layout IP packet (bytes starting at
/// the IP header). Used identically by the CPU path and the GPU kernel.
fn aes_apply(sa: &SaTable, ip_pkt: &mut [u8]) {
    let len = ip_pkt.len();
    let ct_start = CT_OFF - IP_OFF;
    if len < ct_start + ESP_ICV_LEN {
        return;
    }
    let dst = u32::from_be_bytes(ip_pkt[16..20].try_into().unwrap());
    let assoc = sa.for_dst(dst);
    let iv: [u8; 16] = ip_pkt[IV_OFF - IP_OFF..IV_OFF - IP_OFF + 16]
        .try_into()
        .unwrap();
    let ct_end = len - ESP_ICV_LEN;
    assoc
        .cipher
        .apply_keystream(&iv, &mut ip_pkt[ct_start..ct_end]);
}

impl Element for IPsecAES {
    fn class_name(&self) -> &'static str {
        "IPsecAES"
    }

    fn process(&mut self, ctx: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        if ctx.compute == ComputeMode::Full {
            aes_apply(&self.sa, &mut pkt.data_mut()[IP_OFF..]);
        }
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        // AES-NI-class CTR plus per-packet context/IV setup.
        CpuProfile {
            fixed_cycles: 90,
            cycles_per_byte: 1.4,
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: IP_OFF },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile {
                // Per-lane AES-CTR cost: one CUDA core manages ~10 MB/s.
                fixed_ns: 3_000.0,
                ns_per_byte: 220.0,
            },
            kernel: in_place_kernel(self.sa.clone(), aes_apply),
            heavy: true,
            postprocess: Postprocess::WriteBack,
        })
    }
}

impl std::fmt::Debug for IPsecAES {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IPsecAES")
    }
}

/// Computes the truncated HMAC-SHA1 ICV over the ESP packet (offloadable).
pub struct IPsecAuthHMAC {
    sa: Arc<SaTable>,
}

impl IPsecAuthHMAC {
    /// Creates the authenticator element over a shared SA table.
    pub fn new(sa: Arc<SaTable>) -> IPsecAuthHMAC {
        IPsecAuthHMAC { sa }
    }
}

/// Fills the ICV of one ESP-layout IP packet (RFC 4303 §2.8: the MAC covers
/// the ESP header, IV, and ciphertext).
fn hmac_apply(sa: &SaTable, ip_pkt: &mut [u8]) {
    let len = ip_pkt.len();
    let esp_start = ESP_OFF - IP_OFF;
    if len < esp_start + ESP_HDR_LEN + ESP_IV_LEN + ESP_ICV_LEN {
        return;
    }
    let dst = u32::from_be_bytes(ip_pkt[16..20].try_into().unwrap());
    let assoc = sa.for_dst(dst);
    let icv = assoc
        .mac
        .mac_truncated_96(&ip_pkt[esp_start..len - ESP_ICV_LEN]);
    ip_pkt[len - ESP_ICV_LEN..].copy_from_slice(&icv);
}

impl Element for IPsecAuthHMAC {
    fn class_name(&self) -> &'static str {
        "IPsecAuthHMAC"
    }

    fn process(&mut self, ctx: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        if ctx.compute == ComputeMode::Full {
            hmac_apply(&self.sa, &mut pkt.data_mut()[IP_OFF..]);
        }
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        // SHA-1 compressions dominate; small packets pay the fixed blocks.
        CpuProfile {
            fixed_cycles: 1050,
            cycles_per_byte: 7.2,
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: IP_OFF },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile {
                // Per-lane HMAC-SHA1: fixed compressions + per-byte cost.
                fixed_ns: 4_000.0,
                ns_per_byte: 260.0,
            },
            kernel: in_place_kernel(self.sa.clone(), hmac_apply),
            heavy: true,
            postprocess: Postprocess::WriteBack,
        })
    }
}

impl std::fmt::Debug for IPsecAuthHMAC {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IPsecAuthHMAC")
    }
}

/// Verifies the ESP ICV; packets failing authentication are dropped
/// (offloadable). The receiving side of the gateway.
pub struct IPsecAuthVerify {
    sa: Arc<SaTable>,
}

impl IPsecAuthVerify {
    /// Creates the verifier element over a shared SA table.
    pub fn new(sa: Arc<SaTable>) -> IPsecAuthVerify {
        IPsecAuthVerify { sa }
    }
}

/// Checks one ESP-layout IP packet's ICV; returns 1 for valid, 0 otherwise.
fn verify_icv(sa: &SaTable, ip_pkt: &[u8]) -> u64 {
    let len = ip_pkt.len();
    let esp_start = ESP_OFF - IP_OFF;
    if len < esp_start + ESP_HDR_LEN + ESP_IV_LEN + ESP_ICV_LEN || ip_pkt[9] != IPPROTO_ESP {
        return 0;
    }
    let dst = u32::from_be_bytes(ip_pkt[16..20].try_into().unwrap());
    let assoc = sa.for_dst(dst);
    let icv: [u8; ESP_ICV_LEN] = ip_pkt[len - ESP_ICV_LEN..].try_into().unwrap();
    u64::from(
        assoc
            .mac
            .verify_truncated_96(&ip_pkt[esp_start..len - ESP_ICV_LEN], &icv),
    )
}

impl Element for IPsecAuthVerify {
    fn class_name(&self) -> &'static str {
        "IPsecAuthVerify"
    }

    // The GPU verdict lands in the scratch slot via the spec's annotation
    // postprocess (implicit write claim); post_offload reads it back.
    fn slot_claims(&self) -> &'static [nba_core::element::SlotClaim] {
        const CLAIMS: &[nba_core::element::SlotClaim] = &[nba_core::element::SlotClaim::reads(
            nba_core::batch::anno::RE_MATCH,
        )];
        CLAIMS
    }

    fn process(&mut self, ctx: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        if ctx.compute == ComputeMode::Full && verify_icv(&self.sa, &pkt.data()[IP_OFF..]) == 0 {
            return PacketResult::Drop;
        }
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        // Same SHA-1 work as generating the MAC.
        CpuProfile {
            fixed_cycles: 1050,
            cycles_per_byte: 7.2,
        }
    }

    // Packets failing ICV verification drop here.
    fn effects(&self) -> ElementEffects {
        ElementEffects {
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        let sa = self.sa.clone();
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: IP_OFF },
            output: DbOutput::PerItem { len: 8 },
            gpu: GpuProfile {
                fixed_ns: 4_000.0,
                ns_per_byte: 260.0,
            },
            kernel: Arc::new(move |io: KernelIo<'_>| {
                for i in 0..io.items {
                    let v = verify_icv(&sa, io.item_in(i));
                    let r = io.item_out_range(i);
                    io.output[r].copy_from_slice(&v.to_le_bytes());
                }
            }),
            heavy: true,
            postprocess: Postprocess::Annotation(nba_core::batch::anno::RE_MATCH),
        })
    }

    fn post_offload(&mut self, ctx: &mut ElemCtx<'_>, batch: &mut nba_core::batch::PacketBatch) {
        // Kernel wrote 1 for authentic packets into the verdict slot.
        let live: Vec<usize> = batch.live_indices().collect();
        for i in live {
            let ok = ctx.compute != ComputeMode::Full
                || batch.anno(i).get(nba_core::batch::anno::RE_MATCH) == 1;
            batch.set_result(
                i,
                if ok {
                    PacketResult::Out(0)
                } else {
                    PacketResult::Drop
                },
            );
        }
    }
}

impl std::fmt::Debug for IPsecAuthVerify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IPsecAuthVerify")
    }
}

/// Decrypts the ESP payload in place (offloadable; CTR is symmetric, so
/// this is the same keystream application as [`IPsecAES`]).
pub struct IPsecDecrypt {
    sa: Arc<SaTable>,
}

impl IPsecDecrypt {
    /// Creates the decryptor element over a shared SA table.
    pub fn new(sa: Arc<SaTable>) -> IPsecDecrypt {
        IPsecDecrypt { sa }
    }
}

impl Element for IPsecDecrypt {
    fn class_name(&self) -> &'static str {
        "IPsecDecrypt"
    }

    fn process(&mut self, ctx: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        if ctx.compute == ComputeMode::Full {
            aes_apply(&self.sa, &mut pkt.data_mut()[IP_OFF..]);
        }
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile {
            fixed_cycles: 90,
            cycles_per_byte: 1.4,
        }
    }

    fn offload(&self) -> Option<OffloadSpec> {
        Some(OffloadSpec {
            input: DbInput::WholePacket { offset: IP_OFF },
            output: DbOutput::InPlace { extra: 0 },
            gpu: GpuProfile {
                fixed_ns: 3_000.0,
                ns_per_byte: 220.0,
            },
            kernel: in_place_kernel(self.sa.clone(), aes_apply),
            heavy: true,
            postprocess: Postprocess::WriteBack,
        })
    }
}

impl std::fmt::Debug for IPsecDecrypt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IPsecDecrypt")
    }
}

/// Strips the (already decrypted, already verified) ESP framing and
/// restores the original inner packet layout.
#[derive(Debug, Default)]
pub struct IPsecESPDecap;

impl Element for IPsecESPDecap {
    fn class_name(&self) -> &'static str {
        "IPsecESPDecap"
    }

    fn process(&mut self, _: &mut ElemCtx<'_>, pkt: &mut Packet, _: &mut Anno) -> PacketResult {
        let len = pkt.len();
        if len < CT_OFF + ESP_TRAILER_LEN + ESP_ICV_LEN {
            return PacketResult::Drop;
        }
        let frame = pkt.data_mut();
        if frame[IP_OFF + 9] != IPPROTO_ESP {
            return PacketResult::Drop;
        }
        let ct_end = len - ESP_ICV_LEN;
        let pad_len = usize::from(frame[ct_end - 2]);
        let proto = frame[ct_end - 1];
        let Some(payload_len) = (ct_end - CT_OFF).checked_sub(ESP_TRAILER_LEN + pad_len) else {
            return PacketResult::Drop;
        };
        // Shift the plaintext payload back over the ESP header + IV.
        frame.copy_within(CT_OFF..CT_OFF + payload_len, ESP_OFF);
        let new_len = ESP_OFF + payload_len;
        let ip_len = (new_len - IP_OFF) as u16;
        frame[IP_OFF + 2..IP_OFF + 4].copy_from_slice(&ip_len.to_be_bytes());
        frame[IP_OFF + 9] = proto;
        ipv4::write_checksum(&mut frame[IP_OFF..], 20);
        let trim = len - new_len;
        pkt.buf_mut().trim(trim);
        PacketResult::Out(0)
    }

    fn cpu_profile(&self) -> CpuProfile {
        CpuProfile {
            fixed_cycles: 150,
            cycles_per_byte: 0.25,
        }
    }

    // The recovered inner packet gets a freshly rewritten, checksummed
    // IPv4 header, so validity is re-established downstream of the decap;
    // malformed ESP framing drops.
    fn effects(&self) -> ElementEffects {
        const EST: &[(usize, HeaderFact)] = &[(0, HeaderFact::Ipv4Valid)];
        ElementEffects {
            establishes: EST,
            disposition: Disposition::MayDrop,
            ..ElementEffects::default()
        }
    }
}

/// Errors from [`open_esp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EspError {
    /// Frame too short or not ESP.
    Malformed,
    /// ICV verification failed.
    BadIcv,
    /// Padding inconsistent after decryption.
    BadPadding,
}

/// Verifies and decrypts a gateway-produced frame (test/receiver helper).
///
/// Returns `(original_protocol, plaintext_payload)`.
pub fn open_esp(frame: &[u8], sa: &SaTable) -> Result<(u8, Vec<u8>), EspError> {
    if frame.len() < CT_OFF + ESP_TRAILER_LEN + ESP_ICV_LEN {
        return Err(EspError::Malformed);
    }
    if frame[IP_OFF + 9] != IPPROTO_ESP {
        return Err(EspError::Malformed);
    }
    let spi = u32::from_be_bytes(frame[ESP_OFF..ESP_OFF + 4].try_into().unwrap());
    let dst = u32::from_be_bytes(frame[IP_OFF + 16..IP_OFF + 20].try_into().unwrap());
    let assoc = sa.for_dst(dst);
    if assoc.spi != spi {
        return Err(EspError::Malformed);
    }
    let len = frame.len();
    let icv: [u8; 12] = frame[len - ESP_ICV_LEN..].try_into().unwrap();
    if !assoc
        .mac
        .verify_truncated_96(&frame[ESP_OFF..len - ESP_ICV_LEN], &icv)
    {
        return Err(EspError::BadIcv);
    }
    let iv: [u8; 16] = frame[IV_OFF..IV_OFF + 16].try_into().unwrap();
    let mut pt = frame[CT_OFF..len - ESP_ICV_LEN].to_vec();
    assoc.cipher.apply_keystream(&iv, &mut pt);
    let pad_len = usize::from(pt[pt.len() - 2]);
    let proto = pt[pt.len() - 1];
    if pad_len + ESP_TRAILER_LEN > pt.len() {
        return Err(EspError::BadPadding);
    }
    // Check the monotonic pad bytes.
    let payload_len = pt.len() - ESP_TRAILER_LEN - pad_len;
    for (k, &b) in pt[payload_len..payload_len + pad_len].iter().enumerate() {
        if b != (k + 1) as u8 {
            return Err(EspError::BadPadding);
        }
    }
    pt.truncate(payload_len);
    Ok((proto, pt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ctx_harness, run_one};
    use nba_io::proto::FrameBuilder;

    fn encrypt_pipeline(frame_len: usize) -> (Packet, Arc<SaTable>, Vec<u8>) {
        let sa = Arc::new(SaTable::new(42));
        let mut f = vec![0u8; frame_len];
        FrameBuilder::default().build_ipv4(&mut f, frame_len, 0x0a000001, 0xc0a80105);
        // Put recognizable bytes in the UDP payload.
        for (i, b) in f[42..].iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        // Fix the UDP length/checksum-free region is already fine; keep a
        // copy of the original payload (IP payload = from byte 34).
        let original = f[34..].to_vec();
        let mut pkt = Packet::from_bytes(&f);

        let (nls, insp) = ctx_harness();
        let mut encap = IPsecESPEncap::new(sa.clone());
        let mut aes = IPsecAES::new(sa.clone());
        let mut auth = IPsecAuthHMAC::new(sa.clone());
        assert_eq!(
            run_one(&mut encap, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        assert_eq!(
            run_one(&mut aes, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        assert_eq!(
            run_one(&mut auth, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        (pkt, sa, original)
    }

    #[test]
    fn gateway_output_decrypts_and_verifies() {
        for len in [64usize, 100, 256, 1024, 1466] {
            let (pkt, sa, original) = encrypt_pipeline(len);
            // The IP header must still be valid with the ESP protocol.
            let ip = nba_io::proto::ipv4::Ipv4View::parse(&pkt.data()[14..]).unwrap();
            assert!(ip.checksum_ok());
            assert_eq!(ip.protocol(), IPPROTO_ESP);
            assert_eq!(usize::from(ip.total_len()), pkt.len() - 14);

            let (proto, payload) = open_esp(pkt.data(), &sa).expect("open");
            assert_eq!(proto, nba_io::proto::IPPROTO_UDP);
            assert_eq!(payload, original, "len = {len}");
        }
    }

    #[test]
    fn encapsulation_lands_in_the_buffer_slack() {
        // Physical bytes follow the frame: ESP's header, padding and ICV
        // fit the slack past the data, so encapsulating never reallocates.
        for (len, most) in [(64, 256), (1024, 1216)] {
            let (pkt, _, _) = encrypt_pipeline(len);
            let buf = pkt.buf();
            assert!(buf.allocated() <= most, "{len} B: {}", buf.allocated());
            assert_eq!(buf.capacity(), nba_io::buf::DEFAULT_BUF_CAPACITY);
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (pkt, _, original) = encrypt_pipeline(256);
        assert_ne!(&pkt.data()[CT_OFF..CT_OFF + original.len()], &original[..]);
    }

    #[test]
    fn tampering_is_detected() {
        let (pkt, sa, _) = encrypt_pipeline(128);
        let mut bad = pkt.data().to_vec();
        bad[CT_OFF + 3] ^= 1;
        assert_eq!(open_esp(&bad, &sa).unwrap_err(), EspError::BadIcv);

        // Truncated frame.
        assert_eq!(open_esp(&bad[..40], &sa).unwrap_err(), EspError::Malformed);
    }

    #[test]
    fn sequence_numbers_increment() {
        let sa = Arc::new(SaTable::new(1));
        let (nls, insp) = ctx_harness();
        let mut encap = IPsecESPEncap::new(sa.clone());
        let mut seqs = Vec::new();
        for _ in 0..3 {
            let mut f = vec![0u8; 64];
            FrameBuilder::default().build_ipv4(&mut f, 64, 1, 2);
            let mut pkt = Packet::from_bytes(&f);
            run_one(&mut encap, &nls, &insp, &mut pkt);
            let seq = u32::from_be_bytes(pkt.data()[ESP_OFF + 4..ESP_OFF + 8].try_into().unwrap());
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    /// Frame lengths of a 64-item task, spread over the IMIX range so the
    /// items differ in block count and tail length.
    fn task_lengths() -> impl Iterator<Item = usize> {
        (0..64).map(|i| 64 + i * 1402 / 63)
    }

    /// Runs `spec`'s kernel over one task holding `items`.
    fn run_kernel(spec: &OffloadSpec, items: &[&[u8]], out_lens: &[usize]) -> Vec<u8> {
        let (staged, out_len) = KernelIo::stage(items, out_lens);
        let mut out = vec![0u8; out_len];
        (spec.kernel)(KernelIo::parse(&staged, &mut out));
        out
    }

    #[test]
    fn gpu_kernels_match_cpu_path() {
        // Encrypt each packet on the "CPU" and all of them as one task via
        // the kernels; byte identical results expected.
        let sa = Arc::new(SaTable::new(9));
        let (nls, insp) = ctx_harness();
        let mut encap = IPsecESPEncap::new(sa.clone());
        let mut aes = IPsecAES::new(sa.clone());
        let mut auth = IPsecAuthHMAC::new(sa.clone());
        let mut staged_frames = Vec::new();
        let mut cpu_frames = Vec::new();
        for (i, len) in task_lengths().enumerate() {
            let mut f = vec![0u8; len];
            FrameBuilder::default().build_ipv4(&mut f, len, 7, 0x55667700 + i as u32);
            let mut pkt = Packet::from_bytes(&f);
            run_one(&mut encap, &nls, &insp, &mut pkt);
            staged_frames.push(pkt.data().to_vec());
            run_one(&mut aes, &nls, &insp, &mut pkt);
            run_one(&mut auth, &nls, &insp, &mut pkt);
            cpu_frames.push(pkt.data().to_vec());
        }

        let items: Vec<&[u8]> = staged_frames.iter().map(|f| &f[IP_OFF..]).collect();
        let lens: Vec<usize> = items.iter().map(|item| item.len()).collect();
        // A kernel's output buffer, cut back into its items.
        let split = |out: &[u8]| -> Vec<Vec<u8>> {
            let mut rest = out;
            lens.iter()
                .map(|&len| {
                    let (item, tail) = rest.split_at(len);
                    rest = tail;
                    item.to_vec()
                })
                .collect()
        };
        let after_aes = split(&run_kernel(&aes.offload().unwrap(), &items, &lens));
        let aes_items: Vec<&[u8]> = after_aes.iter().map(Vec::as_slice).collect();
        let after_auth = split(&run_kernel(&auth.offload().unwrap(), &aes_items, &lens));
        for (i, (cpu, kernel)) in cpu_frames.iter().zip(&after_auth).enumerate() {
            assert!(cpu[IP_OFF..] == kernel[..], "item {i} ({} B)", cpu.len());
        }
    }

    #[test]
    fn receive_side_round_trips_the_gateway_output() {
        // encap -> AES -> HMAC, then verify -> decrypt -> decap restores
        // the original frame bytes (sans TTL work done elsewhere).
        let (mut pkt, sa, original_payload) = encrypt_pipeline(300);
        let (nls, insp) = ctx_harness();
        let mut verify = IPsecAuthVerify::new(sa.clone());
        let mut decrypt = IPsecDecrypt::new(sa.clone());
        let mut decap = IPsecESPDecap;
        assert_eq!(
            run_one(&mut verify, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        assert_eq!(
            run_one(&mut decrypt, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        assert_eq!(
            run_one(&mut decap, &nls, &insp, &mut pkt),
            PacketResult::Out(0)
        );
        assert_eq!(pkt.len(), 300);
        assert_eq!(&pkt.data()[34..], &original_payload[..]);
        let ip = nba_io::proto::ipv4::Ipv4View::parse(&pkt.data()[14..]).unwrap();
        assert!(ip.checksum_ok());
        assert_eq!(ip.protocol(), nba_io::proto::IPPROTO_UDP);
    }

    #[test]
    fn tampered_packets_fail_verification() {
        let (mut pkt, sa, _) = encrypt_pipeline(128);
        pkt.data_mut()[CT_OFF + 1] ^= 0x40;
        let (nls, insp) = ctx_harness();
        let mut verify = IPsecAuthVerify::new(sa);
        assert_eq!(
            run_one(&mut verify, &nls, &insp, &mut pkt),
            PacketResult::Drop
        );
    }

    #[test]
    fn decap_rejects_non_esp_and_garbage_padding() {
        let sa = Arc::new(SaTable::new(2));
        let (nls, insp) = ctx_harness();
        let mut decap = IPsecESPDecap;
        // Plain UDP packet: not ESP.
        let mut f = vec![0u8; 128];
        FrameBuilder::default().build_ipv4(&mut f, 128, 1, 2);
        let mut plain = Packet::from_bytes(&f);
        assert_eq!(
            run_one(&mut decap, &nls, &insp, &mut plain),
            PacketResult::Drop
        );
        // ESP packet whose (unverified) pad length is absurd.
        let (mut pkt, _, _) = {
            let sa2 = sa.clone();
            let mut f = vec![0u8; 96];
            FrameBuilder::default().build_ipv4(&mut f, 96, 3, 4);
            let mut p = Packet::from_bytes(&f);
            let mut encap = IPsecESPEncap::new(sa2);
            run_one(&mut encap, &nls, &insp, &mut p);
            (p, sa, ())
        };
        let n = pkt.len();
        pkt.data_mut()[n - ESP_ICV_LEN - 2] = 0xff; // Pad length 255.
        assert_eq!(
            run_one(&mut decap, &nls, &insp, &mut pkt),
            PacketResult::Drop
        );
    }

    #[test]
    fn verify_kernel_matches_cpu_verdicts() {
        // One task of gateway output, every third item tampered with at a
        // position that moves with the item.
        let (nls, insp) = ctx_harness();
        // Every `encrypt_pipeline` call builds the same SA table.
        let (_, sa, _) = encrypt_pipeline(64);
        let mut frames = Vec::new();
        for (i, len) in task_lengths().enumerate() {
            let mut frame = encrypt_pipeline(len).0.data().to_vec();
            if i % 3 == 0 {
                let at = ESP_OFF + i * (frame.len() - ESP_OFF) / 64;
                frame[at] ^= 1;
            }
            frames.push(frame);
        }
        let mut verify = IPsecAuthVerify::new(sa);
        let items: Vec<&[u8]> = frames.iter().map(|f| &f[IP_OFF..]).collect();
        let out = run_kernel(&verify.offload().unwrap(), &items, &[8; 64]);
        for (i, frame) in frames.iter().enumerate() {
            let verdict = u64::from_le_bytes(out[8 * i..8 * i + 8].try_into().unwrap());
            let cpu = run_one(&mut verify, &nls, &insp, &mut Packet::from_bytes(frame));
            assert_eq!(verdict == 1, cpu == PacketResult::Out(0), "item {i}");
            assert_eq!(verdict == 1, i % 3 != 0, "item {i}");
        }
    }

    #[test]
    fn sa_lookup_by_spi() {
        let sa = SaTable::new(3);
        let a = sa.for_dst(0x0a000001);
        assert_eq!(sa.by_spi(a.spi).unwrap().spi, a.spi);
        assert!(sa.by_spi(0xdead_0000).is_none());
    }
}
