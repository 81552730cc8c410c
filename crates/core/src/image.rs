//! Memory image: binds simulated virtual regions to real data arrays.
//!
//! The TMU engine is programmed with base virtual addresses (Figure 8 uses
//! raw pointers like `a->ptrs`); its functional execution must read the
//! actual array contents while its timing model sends the same addresses
//! through the simulated memory hierarchy. A [`MemImage`] provides that
//! translation: kernels allocate regions in a [`tmu_sim::AddressMap`] and
//! bind the backing slices here.

use std::sync::Arc;

use tmu_sim::Region;

use crate::error::TmuError;

/// Typed backing storage of one bound region.
#[derive(Debug, Clone)]
enum Backing {
    U32(Arc<Vec<u32>>),
    F64(Arc<Vec<f64>>),
}

#[derive(Debug, Clone)]
struct Binding {
    base: u64,
    len_bytes: u64,
    elem: u64,
    data: Backing,
}

/// A collection of region→array bindings.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    bindings: Vec<Binding>,
}

impl MemImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `region` to a `u32` index array.
    ///
    /// # Panics
    ///
    /// Panics if the array does not fit the region.
    pub fn bind_u32(&mut self, region: Region, data: Arc<Vec<u32>>) {
        assert!(
            data.len() as u64 * 4 <= region.len,
            "u32 array overflows region"
        );
        self.bindings.push(Binding {
            base: region.base,
            len_bytes: data.len() as u64 * 4,
            elem: 4,
            data: Backing::U32(data),
        });
    }

    /// Binds `region` to an `f64` value array.
    ///
    /// # Panics
    ///
    /// Panics if the array does not fit the region.
    pub fn bind_f64(&mut self, region: Region, data: Arc<Vec<f64>>) {
        assert!(
            data.len() as u64 * 8 <= region.len,
            "f64 array overflows region"
        );
        self.bindings.push(Binding {
            base: region.base,
            len_bytes: data.len() as u64 * 8,
            elem: 8,
            data: Backing::F64(data),
        });
    }

    fn find(&self, addr: u64) -> Option<&Binding> {
        self.bindings
            .iter()
            .find(|b| addr >= b.base && addr < b.base + b.len_bytes)
    }

    /// Locates the binding containing `addr` and the in-bounds element
    /// index, or the typed decode error.
    fn decode(&self, addr: u64) -> Result<(&Binding, usize), TmuError> {
        let b = self.find(addr).ok_or(TmuError::UnboundAddress { addr })?;
        let off = addr - b.base;
        if !off.is_multiple_of(b.elem) {
            return Err(TmuError::MisalignedAddress {
                addr,
                elem: b.elem as usize,
            });
        }
        Ok((b, (off / b.elem) as usize))
    }

    /// Reads an index word at `addr` (u32 arrays; f64 arrays are truncated
    /// to integers, which traversal programs never rely on).
    ///
    /// # Panics
    ///
    /// Panics if the address is unbound or misaligned.
    pub fn read_index(&self, addr: u64) -> i64 {
        match self.try_read_index(addr) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`MemImage::read_index`].
    pub fn try_read_index(&self, addr: u64) -> Result<i64, TmuError> {
        let (b, i) = self.decode(addr)?;
        Ok(match &b.data {
            Backing::U32(v) => v[i] as i64,
            Backing::F64(v) => v[i] as i64,
        })
    }

    /// Reads a value word at `addr` as raw bits (u32 widened, f64 bits).
    ///
    /// # Panics
    ///
    /// Panics if the address is unbound or misaligned.
    pub fn read_bits(&self, addr: u64) -> u64 {
        match self.try_read_bits(addr) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`MemImage::read_bits`].
    pub fn try_read_bits(&self, addr: u64) -> Result<u64, TmuError> {
        let (b, i) = self.decode(addr)?;
        Ok(match &b.data {
            Backing::U32(v) => v[i] as u64,
            Backing::F64(v) => v[i].to_bits(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmu_sim::AddressMap;

    #[test]
    fn reads_through_bindings() {
        let mut map = AddressMap::new();
        let idx_region = map.alloc_elems("idxs", 4, 4);
        let val_region = map.alloc_elems("vals", 4, 8);
        let mut image = MemImage::new();
        image.bind_u32(idx_region, Arc::new(vec![5, 6, 7, 8]));
        image.bind_f64(val_region, Arc::new(vec![1.5, 2.5, 3.5, 4.5]));
        assert_eq!(image.read_index(idx_region.u32_at(2)), 7);
        assert_eq!(f64::from_bits(image.read_bits(val_region.f64_at(1))), 2.5);
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn unbound_read_panics() {
        let image = MemImage::new();
        image.read_index(0x1234);
    }

    #[test]
    fn try_reads_report_typed_errors() {
        use crate::error::TmuError;
        let mut map = AddressMap::new();
        let r = map.alloc_elems("vals", 4, 8);
        let mut image = MemImage::new();
        image.bind_f64(r, Arc::new(vec![1.0; 4]));
        assert_eq!(
            image.try_read_bits(0x1234),
            Err(TmuError::UnboundAddress { addr: 0x1234 })
        );
        assert_eq!(
            image.try_read_index(r.base + 3),
            Err(TmuError::MisalignedAddress {
                addr: r.base + 3,
                elem: 8
            })
        );
    }

    #[test]
    #[should_panic(expected = "overflows region")]
    fn oversized_binding_rejected() {
        let mut map = AddressMap::new();
        let r = map.alloc("small", 8);
        let mut image = MemImage::new();
        image.bind_f64(r, Arc::new(vec![0.0; 4096]));
    }
}
