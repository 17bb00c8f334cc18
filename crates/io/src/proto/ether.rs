//! Ethernet II header view.

use super::ParseError;

/// Length of an Ethernet II header.
pub const ETHER_HDR_LEN: usize = 14;

/// A read-only view of an Ethernet II frame.
#[derive(Debug, Clone, Copy)]
pub struct EtherView<'a> {
    bytes: &'a [u8],
}

impl<'a> EtherView<'a> {
    /// Parses a frame, requiring at least the 14-byte header.
    pub fn parse(bytes: &'a [u8]) -> Result<EtherView<'a>, ParseError> {
        if bytes.len() < ETHER_HDR_LEN {
            return Err(ParseError::Truncated);
        }
        Ok(EtherView { bytes })
    }

    /// Destination MAC address.
    pub fn dst(&self) -> [u8; 6] {
        self.bytes[0..6].try_into().unwrap()
    }

    /// Source MAC address.
    pub fn src(&self) -> [u8; 6] {
        self.bytes[6..12].try_into().unwrap()
    }

    /// EtherType field.
    pub fn ethertype(&self) -> u16 {
        u16::from_be_bytes([self.bytes[12], self.bytes[13]])
    }

    /// `true` if the destination is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        self.dst() == [0xff; 6]
    }

    /// `true` if the destination has the group (multicast) bit set.
    pub fn is_multicast(&self) -> bool {
        self.bytes[0] & 0x01 != 0
    }

    /// Everything after the Ethernet header.
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[ETHER_HDR_LEN..]
    }
}

/// Swaps source and destination MACs in place (the L2 forwarder element).
///
/// # Panics
///
/// Panics if `frame` is shorter than the Ethernet header.
pub fn swap_addresses(frame: &mut [u8]) {
    assert!(frame.len() >= ETHER_HDR_LEN);
    for i in 0..6 {
        frame.swap(i, i + 6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut f = vec![0u8; 20];
        f[0..6].copy_from_slice(&[2, 2, 3, 4, 5, 6]);
        f[6..12].copy_from_slice(&[7, 8, 9, 10, 11, 12]);
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        f
    }

    #[test]
    fn fields_parse() {
        let f = sample();
        let v = EtherView::parse(&f).unwrap();
        assert_eq!(v.dst(), [2, 2, 3, 4, 5, 6]);
        assert_eq!(v.src(), [7, 8, 9, 10, 11, 12]);
        assert_eq!(v.ethertype(), 0x0800);
        assert_eq!(v.payload().len(), 6);
        assert!(!v.is_broadcast());
        assert!(!v.is_multicast());
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            EtherView::parse(&[0u8; 13]).unwrap_err(),
            ParseError::Truncated
        );
    }

    #[test]
    fn swap_is_involutive() {
        let mut f = sample();
        swap_addresses(&mut f);
        let v = EtherView::parse(&f).unwrap();
        assert_eq!(v.dst(), [7, 8, 9, 10, 11, 12]);
        swap_addresses(&mut f);
        assert_eq!(f, sample());
    }

    #[test]
    fn broadcast_and_multicast_detected() {
        let mut f = sample();
        f[0..6].copy_from_slice(&[0xff; 6]);
        let v = EtherView::parse(&f).unwrap();
        assert!(v.is_broadcast());
        assert!(v.is_multicast());
        f[0] = 0x01;
        f[1] = 0;
        let v = EtherView::parse(&f).unwrap();
        assert!(!v.is_broadcast());
        assert!(v.is_multicast());
    }
}
