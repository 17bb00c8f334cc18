//! HMAC-SHA1 (RFC 2104), plus the 96-bit truncation ESP uses (RFC 2404).

use crate::sha1::{Midstate, Sha1, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA1 keyed MAC.
#[derive(Clone)]
pub struct HmacSha1 {
    /// SHA-1 after the inner padded key block.
    inner_init: Midstate,
    /// SHA-1 after the outer padded key block.
    outer_init: Midstate,
}

impl HmacSha1 {
    /// Creates a MAC for `key` (any length; long keys are hashed first).
    pub fn new(key: &[u8]) -> HmacSha1 {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&Sha1::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        // Pre-compute the first compression of each pass so per-message cost
        // is two block hashes smaller — the trick the paper's gateway uses
        // by caching OpenSSL envelope contexts per flow.
        let after = |pad: &[u8; BLOCK_LEN]| {
            let mut s = Sha1::new();
            s.update(pad);
            s.midstate()
        };
        HmacSha1 {
            inner_init: after(&ipad),
            outer_init: after(&opad),
        }
    }

    /// Computes the full 20-byte MAC of `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = Sha1::resume(self.inner_init);
        inner.update(data);
        let mut outer = Sha1::resume(self.outer_init);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Computes the 96-bit truncated MAC used as the ESP ICV (RFC 2404).
    pub fn mac_truncated_96(&self, data: &[u8]) -> [u8; 12] {
        self.mac(data)[..12].try_into().unwrap()
    }

    /// Constant-time-ish verification of a truncated ICV.
    pub fn verify_truncated_96(&self, data: &[u8], icv: &[u8; 12]) -> bool {
        let expect = self.mac_truncated_96(data);
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(icv) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl std::fmt::Debug for HmacSha1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("HmacSha1 { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // All seven RFC 2202 HMAC-SHA1 cases, in the order 1-3, 6 (long key),
    // 4, 5, 7.
    #[test]
    fn rfc2202_vectors() {
        let m = HmacSha1::new(&[0x0b; 20]);
        assert_eq!(
            hex(&m.mac(b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );

        let m = HmacSha1::new(b"Jefe");
        assert_eq!(
            hex(&m.mac(b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );

        let m = HmacSha1::new(&[0xaa; 20]);
        assert_eq!(
            hex(&m.mac(&[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );

        let m = HmacSha1::new(&[0xaa; 80]);
        assert_eq!(
            hex(&m.mac(b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );

        let key: Vec<u8> = (1..=25).collect();
        assert_eq!(
            hex(&HmacSha1::new(&key).mac(&[0xcd; 50])),
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da"
        );

        let m = HmacSha1::new(&[0x0c; 20]);
        assert_eq!(
            hex(&m.mac(b"Test With Truncation")),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"
        );
        assert_eq!(
            hex(&m.mac_truncated_96(b"Test With Truncation")),
            "4c1a03424b55e07fe7f27be1"
        );

        let m = HmacSha1::new(&[0xaa; 80]);
        assert_eq!(
            hex(&m
                .mac(b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data")),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"
        );
    }

    #[test]
    fn truncated_is_prefix() {
        let m = HmacSha1::new(b"key");
        let full = m.mac(b"msg");
        assert_eq!(m.mac_truncated_96(b"msg"), full[..12]);
    }

    #[test]
    fn verify_accepts_good_rejects_bad() {
        let m = HmacSha1::new(b"secret");
        let icv = m.mac_truncated_96(b"payload");
        assert!(m.verify_truncated_96(b"payload", &icv));
        let mut bad = icv;
        bad[0] ^= 1;
        assert!(!m.verify_truncated_96(b"payload", &bad));
        assert!(!m.verify_truncated_96(b"other payload", &icv));
    }

    #[test]
    fn debug_hides_key_material() {
        assert_eq!(format!("{:?}", HmacSha1::new(b"k")), "HmacSha1 { .. }");
    }
}
