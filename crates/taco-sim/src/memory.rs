//! Word-addressed data memory.
//!
//! The paper's router transfers *entire datagrams* into the processor's main
//! memory; this module is that memory.  TACO has a 32-bit datapath, so the
//! memory is an array of 32-bit words addressed by word index.

use std::borrow::Cow;

use crate::error::SimError;

/// Data memory: a flat array of 32-bit words, zero at power-on.
///
/// Only the prefix that has been written is materialised: a router that
/// loads a table and eight datagrams into a 65 536-word memory touches a
/// few thousand words, and building it costs those, not a 256 KiB
/// allocation zeroed per instance.  Every word past the prefix reads as
/// zero, so the laziness is unobservable — equality included.
///
/// # Examples
///
/// ```
/// use taco_sim::DataMemory;
///
/// # fn main() -> Result<(), taco_sim::SimError> {
/// let mut mem = DataMemory::new(1024);
/// mem.write(0x10, 0xdead_beef)?;
/// assert_eq!(mem.read(0x10)?, 0xdead_beef);
/// assert_eq!(mem.read(0x3ff)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DataMemory {
    /// The materialised prefix; words in `words.len()..size` are zero.
    words: Vec<u32>,
    size: u32,
}

impl PartialEq for DataMemory {
    fn eq(&self, other: &Self) -> bool {
        let shared = self.words.len().min(other.words.len());
        self.size == other.size
            && self.words[..shared] == other.words[..shared]
            && self.words[shared..].iter().chain(&other.words[shared..]).all(|w| *w == 0)
    }
}

impl Eq for DataMemory {}

impl DataMemory {
    /// Creates a zeroed memory of `size` words.
    pub fn new(size: u32) -> Self {
        DataMemory { words: Vec::new(), size }
    }

    /// Memory size in words.
    pub fn size(&self) -> u32 {
        self.size
    }

    #[cold]
    fn out_of_bounds(&self, addr: u32) -> SimError {
        SimError::MemoryOutOfBounds { addr, size: self.size }
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryOutOfBounds`] if `addr` is outside memory.
    #[inline]
    pub fn read(&self, addr: u32) -> Result<u32, SimError> {
        match self.words.get(addr as usize) {
            Some(w) => Ok(*w),
            None if addr < self.size => Ok(0),
            None => Err(self.out_of_bounds(addr)),
        }
    }

    /// Writes `value` at `addr`.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryOutOfBounds`] if `addr` is outside memory.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if let Some(w) = self.words.get_mut(addr as usize) {
            *w = value;
            return Ok(());
        }
        if addr >= self.size {
            return Err(self.out_of_bounds(addr));
        }
        self.words.resize(addr as usize + 1, 0);
        self.words[addr as usize] = value;
        Ok(())
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryOutOfBounds`] if the block does not fit.
    pub fn load(&mut self, addr: u32, data: &[u32]) -> Result<(), SimError> {
        let start = addr as usize;
        match start.checked_add(data.len()) {
            Some(end) if end <= self.size as usize => {
                if end > self.words.len() {
                    self.words.resize(end, 0);
                }
                self.words[start..end].copy_from_slice(data);
                Ok(())
            }
            _ => Err(self.out_of_bounds(addr.saturating_add(data.len() as u32))),
        }
    }

    /// Materialises every word below `end` (clamped to the memory size), so
    /// writes and loads below it never grow the memory again.  The new
    /// words are zero, as they already read.
    pub fn reserve_to(&mut self, end: u32) {
        let end = end.min(self.size) as usize;
        if end > self.words.len() {
            self.words.resize(end, 0);
        }
    }

    /// Reads `len` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryOutOfBounds`] if the block does not fit.
    pub fn read_block(&self, addr: u32, len: u32) -> Result<Cow<'_, [u32]>, SimError> {
        let start = addr as usize;
        match start.checked_add(len as usize) {
            Some(end) if end <= self.words.len() => Ok(Cow::Borrowed(&self.words[start..end])),
            Some(end) if end <= self.size as usize => {
                let mut block = self.words.get(start..).unwrap_or(&[]).to_vec();
                block.resize(len as usize, 0);
                Ok(Cow::Owned(block))
            }
            _ => Err(self.out_of_bounds(addr.saturating_add(len))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = DataMemory::new(16);
        m.write(3, 77).unwrap();
        assert_eq!(m.read(3).unwrap(), 77);
        assert_eq!(m.read(4).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = DataMemory::new(4);
        assert!(matches!(m.read(4), Err(SimError::MemoryOutOfBounds { addr: 4, size: 4 })));
        assert!(m.write(100, 0).is_err());
    }

    #[test]
    fn block_load_and_read() {
        let mut m = DataMemory::new(8);
        m.load(2, &[1, 2, 3]).unwrap();
        assert_eq!(*m.read_block(2, 3).unwrap(), [1, 2, 3]);
        assert_eq!(*m.read_block(4, 4).unwrap(), [3, 0, 0, 0]);
        assert_eq!(*m.read_block(6, 2).unwrap(), [0, 0]);
        assert!(m.load(6, &[1, 2, 3]).is_err());
        assert!(m.read_block(7, 2).is_err());
    }

    #[test]
    fn overflowing_block_does_not_panic() {
        let mut m = DataMemory::new(8);
        assert!(m.load(u32::MAX, &[1]).is_err());
        assert!(m.read_block(u32::MAX, 2).is_err());
    }

    #[test]
    fn unwritten_words_read_zero_and_do_not_affect_equality() {
        let mut a = DataMemory::new(32);
        assert_eq!((a.size(), a.read(31)), (32, Ok(0)));
        let mut b = a.clone();
        a.write(3, 5).unwrap();
        assert_ne!(a, b);
        b.write(3, 5).unwrap();
        b.write(20, 0).unwrap();
        b.load(24, &[0, 0]).unwrap();
        b.reserve_to(u32::MAX);
        assert_eq!(a, b);
        b.write(31, 1).unwrap();
        assert_ne!(a, b);
        assert_ne!(DataMemory::new(4), DataMemory::new(8));
    }
}
