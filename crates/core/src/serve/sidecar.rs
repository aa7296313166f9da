//! Warm-state sidecar: persisting the pilot cache across restarts.
//!
//! A [`Server`](crate::serve::Server) configured with
//! [`ServeConfig::pilot_sidecar`](crate::config::ServeConfig::pilot_sidecar)
//! writes its pilot LRU (every `PilotKey → PilotState` entry, in
//! recency order, plus the per-dataset epoch floors) to one file at
//! shutdown and reloads it at spawn, so a restarted server serves its
//! first queries from warm pilots instead of retraining them.
//!
//! Three properties carry the warm-restore contract:
//!
//! * **Bit-exactness.** A pilot is serialized in its stored form —
//!   θ via `f64::to_bits`, the covariance factor kept explicit or
//!   implicit exactly as computed — so a query answered from a
//!   restored pilot is bit-identical to one answered from the original
//!   in-memory entry (which is itself bit-identical to a cold run).
//! * **Revalidation.** At load, entries are dropped unless their
//!   dataset id is registered with the restarting server and their
//!   epoch is at most the dataset's *recovered* epoch (a durable pool
//!   that lost an unsynced tail recovers to an earlier epoch; pilots
//!   for the lost epochs describe snapshots that no longer exist).
//!   Persisted floors are re-applied first, so retired epochs stay
//!   retired across restarts.
//! * **Best-effort load, atomic write.** The file is written via
//!   temp + rename (a crash mid-persist leaves the previous sidecar
//!   intact), and a missing or damaged sidecar is *ignored* at spawn —
//!   the server starts cold and every response is still correct, just
//!   slower. Durability of results never depends on the sidecar.

use crate::coordinator::PilotState;
use crate::grads::Grads;
use crate::mcs::TrainedModel;
use crate::serve::cache::{PilotKey, WarmImage};
use crate::stats::{Factor, ModelStatistics};
use blinkml_data::wal::{crc32, put_f64, put_u32, put_u64, put_usize, Decoder, WalError};
use blinkml_data::{SparseVec, WalRow};
use blinkml_linalg::Matrix;
use std::collections::HashMap;
use std::fs::{self, File};
use std::path::Path;
use std::sync::Arc;

/// Magic + format version prefix of a pilot sidecar file.
const SIDECAR_MAGIC: &[u8; 8] = b"BMLPILO1";

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_usize(out, xs.len());
    for &x in xs {
        put_f64(out, x);
    }
}

fn f64s(dec: &mut Decoder<'_>) -> Result<Vec<f64>, WalError> {
    let len = dec.usize()?;
    if len.saturating_mul(8) > dec.remaining() {
        return Err(dec.corrupt("f64 vector length exceeds payload"));
    }
    (0..len).map(|_| dec.f64()).collect()
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_usize(out, m.rows());
    put_usize(out, m.cols());
    for &x in m.as_slice() {
        put_f64(out, x);
    }
}

fn matrix(dec: &mut Decoder<'_>) -> Result<Matrix, WalError> {
    let rows = dec.usize()?;
    let cols = dec.usize()?;
    let len = rows.saturating_mul(cols);
    if len.saturating_mul(8) > dec.remaining() {
        return Err(dec.corrupt("matrix size exceeds payload"));
    }
    let data = (0..len).map(|_| dec.f64()).collect::<Result<Vec<_>, _>>()?;
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_grads(out: &mut Vec<u8>, grads: &Grads) {
    match grads {
        Grads::Dense(m) => {
            out.push(0);
            put_matrix(out, m);
        }
        Grads::Sparse { rows, shift } => {
            out.push(1);
            put_usize(out, rows.len());
            for row in rows {
                row.encode_wal(out);
            }
            put_f64s(out, shift);
        }
    }
}

fn grads(dec: &mut Decoder<'_>) -> Result<Grads, WalError> {
    match dec.u8()? {
        0 => Ok(Grads::Dense(matrix(dec)?)),
        1 => {
            let n = dec.usize()?;
            if n > dec.remaining() {
                return Err(dec.corrupt("gradient row count exceeds payload"));
            }
            let rows = (0..n)
                .map(|_| SparseVec::decode_wal(dec))
                .collect::<Result<Vec<_>, _>>()?;
            let shift = f64s(dec)?;
            Ok(Grads::Sparse { rows, shift })
        }
        tag => Err(dec.corrupt(format!("unknown gradient encoding {tag}"))),
    }
}

fn put_stats(out: &mut Vec<u8>, stats: &ModelStatistics) {
    put_usize(out, stats.dim());
    match stats.factor() {
        Factor::Explicit(l) => {
            out.push(0);
            put_matrix(out, l);
        }
        Factor::Implicit {
            v,
            lambda,
            grads: g,
            beta,
        } => {
            out.push(1);
            put_matrix(out, v);
            put_f64s(out, lambda);
            put_grads(out, g);
            put_f64(out, *beta);
        }
    }
}

fn stats(dec: &mut Decoder<'_>) -> Result<ModelStatistics, WalError> {
    let dim = dec.usize()?;
    let factor = match dec.u8()? {
        0 => Factor::Explicit(matrix(dec)?),
        1 => {
            let v = matrix(dec)?;
            let lambda = f64s(dec)?;
            let g = grads(dec)?;
            let beta = dec.f64()?;
            Factor::Implicit {
                v,
                lambda,
                grads: g,
                beta,
            }
        }
        tag => return Err(dec.corrupt(format!("unknown factor encoding {tag}"))),
    };
    Ok(ModelStatistics::from_parts(dim, factor))
}

fn put_pilot(out: &mut Vec<u8>, key: &PilotKey, pilot: &PilotState) {
    put_u64(out, key.0);
    put_u64(out, key.1);
    put_usize(out, key.2);
    put_u64(out, key.3);
    put_f64s(out, pilot.model.parameters());
    put_usize(out, pilot.model.sample_size);
    put_usize(out, pilot.model.iterations);
    out.push(pilot.model.converged as u8);
    put_f64(out, pilot.model.objective_value);
    put_usize(out, pilot.n0);
    match &pilot.stats {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_stats(out, s);
        }
    }
}

fn pilot(dec: &mut Decoder<'_>) -> Result<(PilotKey, PilotState), WalError> {
    let key = (dec.u64()?, dec.u64()?, dec.usize()?, dec.u64()?);
    let theta = f64s(dec)?;
    let sample_size = dec.usize()?;
    let iterations = dec.usize()?;
    let converged = match dec.u8()? {
        0 => false,
        1 => true,
        b => return Err(dec.corrupt(format!("invalid convergence flag {b}"))),
    };
    let objective_value = dec.f64()?;
    let n0 = dec.usize()?;
    let stats = match dec.u8()? {
        0 => None,
        1 => Some(stats(dec)?),
        b => return Err(dec.corrupt(format!("invalid statistics tag {b}"))),
    };
    Ok((
        key,
        PilotState {
            model: TrainedModel::new(theta, sample_size, iterations, converged, objective_value),
            stats,
            n0,
            // ε₀'s draws are not persisted: the first query refills them.
            eps0: Default::default(),
        },
    ))
}

/// Serialize the cache export (entries oldest-first plus floors) and
/// atomically replace `path` (temp + fsync + rename). Returns how many
/// entries were written.
pub(crate) fn save(
    path: &Path,
    entries: &[(PilotKey, Arc<PilotState>)],
    floors: &HashMap<u64, u64>,
) -> std::io::Result<usize> {
    let mut payload = Vec::new();
    // Sort floors so the same cache state always produces the same
    // bytes (HashMap iteration order is not deterministic).
    let mut sorted: Vec<(u64, u64)> = floors.iter().map(|(&d, &f)| (d, f)).collect();
    sorted.sort_unstable();
    put_usize(&mut payload, sorted.len());
    for (dataset, floor) in sorted {
        put_u64(&mut payload, dataset);
        put_u64(&mut payload, floor);
    }
    put_usize(&mut payload, entries.len());
    for (key, pilot) in entries {
        put_pilot(&mut payload, key, pilot);
    }

    let mut buf = Vec::with_capacity(SIDECAR_MAGIC.len() + 8 + payload.len());
    buf.extend_from_slice(SIDECAR_MAGIC);
    put_u32(&mut buf, payload.len() as u32);
    put_u32(&mut buf, crc32(&payload));
    buf.extend_from_slice(&payload);

    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(entries.len())
}

/// Read and verify a sidecar file. Entries come back in the order they
/// were written (oldest-first), ready for
/// [`PilotCache::seed`](crate::serve::cache::PilotCache::seed).
pub(crate) fn load(path: &Path) -> Result<WarmImage, WalError> {
    let buf = fs::read(path)?;
    if buf.len() < SIDECAR_MAGIC.len() + 8 || &buf[..SIDECAR_MAGIC.len()] != SIDECAR_MAGIC {
        return Err(blinkml_data::wal::corrupt(0, "missing sidecar magic"));
    }
    let head = SIDECAR_MAGIC.len();
    let len = u32::from_le_bytes([buf[head], buf[head + 1], buf[head + 2], buf[head + 3]]);
    let crc = u32::from_le_bytes([buf[head + 4], buf[head + 5], buf[head + 6], buf[head + 7]]);
    if len as usize != buf.len() - head - 8 {
        return Err(blinkml_data::wal::corrupt(
            head as u64,
            "sidecar length mismatch",
        ));
    }
    let payload = &buf[head + 8..];
    if crc32(payload) != crc {
        return Err(blinkml_data::wal::corrupt(
            head as u64,
            "sidecar CRC mismatch",
        ));
    }

    let mut dec = Decoder::new(payload, (head + 8) as u64);
    let nfloors = dec.usize()?;
    if nfloors.saturating_mul(16) > dec.remaining() {
        return Err(dec.corrupt("floor count exceeds payload"));
    }
    let mut floors = HashMap::with_capacity(nfloors);
    for _ in 0..nfloors {
        let dataset = dec.u64()?;
        let floor = dec.u64()?;
        floors.insert(dataset, floor);
    }
    let nentries = dec.usize()?;
    if nentries > dec.remaining() {
        return Err(dec.corrupt("entry count exceeds payload"));
    }
    let mut entries = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        let (key, state) = pilot(&mut dec)?;
        entries.push((key, Arc::new(state)));
    }
    dec.finish()?;
    Ok((entries, floors))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_pilot(seed: u64) -> PilotState {
        let theta: Vec<f64> = (0..4)
            .map(|i| (seed as f64 + 0.1) * (i as f64 + 1.0))
            .collect();
        PilotState {
            model: TrainedModel::new(theta, 100, 7, true, -0.52),
            stats: Some(ModelStatistics::from_parts(
                4,
                Factor::Explicit(Matrix::from_fn(4, 3, |i, j| {
                    (i * 3 + j) as f64 * 0.25 + seed as f64
                })),
            )),
            n0: 100,
            eps0: Default::default(),
        }
    }

    fn implicit_pilot() -> PilotState {
        let rows = vec![
            SparseVec::new(4, vec![0, 2], vec![1.5, -0.25]),
            SparseVec::new(4, vec![1], vec![0.75]),
        ];
        PilotState {
            model: TrainedModel::new(vec![0.1, -0.2, 0.3, -0.4], 50, 3, false, 1.25),
            stats: Some(ModelStatistics::from_parts(
                4,
                Factor::Implicit {
                    v: Matrix::from_fn(2, 2, |i, j| (i + j) as f64 + 0.5),
                    lambda: vec![2.0, 0.5],
                    grads: Grads::Sparse {
                        rows,
                        shift: vec![0.01, 0.02, 0.03, 0.04],
                    },
                    beta: 1e-3,
                },
            )),
            n0: 50,
            eps0: Default::default(),
        }
    }

    fn assert_pilots_bit_equal(a: &PilotState, b: &PilotState) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.model.parameters()), bits(b.model.parameters()));
        assert_eq!(a.model.sample_size, b.model.sample_size);
        assert_eq!(a.model.iterations, b.model.iterations);
        assert_eq!(a.model.converged, b.model.converged);
        assert_eq!(
            a.model.objective_value.to_bits(),
            b.model.objective_value.to_bits()
        );
        assert_eq!(a.n0, b.n0);
        match (&a.stats, &b.stats) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.dim(), sb.dim());
                assert_eq!(sa.rank(), sb.rank());
                // Marginal variances exercise the factor along its
                // stored branch; bit-equality here means the factor
                // round-tripped on the same code path with the same
                // bits.
                assert_eq!(
                    bits(&sa.marginal_variances()),
                    bits(&sb.marginal_variances())
                );
            }
            _ => panic!("statistics presence diverged"),
        }
    }

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blinkml-sidecar-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pilots.bin")
    }

    #[test]
    fn sidecar_roundtrips_pilots_and_floors() {
        let path = tmpfile("roundtrip");
        let entries = vec![
            ((1u64, 0u64, 100usize, 7u64), Arc::new(dense_pilot(1))),
            ((2, 3, 50, 9), Arc::new(implicit_pilot())),
        ];
        let mut floors = HashMap::new();
        floors.insert(2u64, 2u64);
        assert_eq!(save(&path, &entries, &floors).unwrap(), 2);

        let (restored, restored_floors) = load(&path).unwrap();
        assert_eq!(restored_floors, floors);
        assert_eq!(restored.len(), 2);
        for ((ka, pa), (kb, pb)) in entries.iter().zip(&restored) {
            assert_eq!(ka, kb, "entry order must survive the roundtrip");
            assert_pilots_bit_equal(pa, pb);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn save_is_deterministic() {
        let path_a = tmpfile("det-a");
        let path_b = tmpfile("det-b");
        let entries = vec![((1u64, 0u64, 10usize, 1u64), Arc::new(dense_pilot(3)))];
        let mut floors = HashMap::new();
        floors.insert(5u64, 1u64);
        floors.insert(1u64, 0u64);
        save(&path_a, &entries, &floors).unwrap();
        save(&path_b, &entries, &floors).unwrap();
        assert_eq!(fs::read(&path_a).unwrap(), fs::read(&path_b).unwrap());
        std::fs::remove_dir_all(path_a.parent().unwrap()).ok();
        std::fs::remove_dir_all(path_b.parent().unwrap()).ok();
    }

    #[test]
    fn damaged_sidecar_is_rejected() {
        let path = tmpfile("damaged");
        save(
            &path,
            &[((1, 0, 10, 1), Arc::new(dense_pilot(0)))],
            &HashMap::new(),
        )
        .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(WalError::Corrupt { .. })));
        // Truncation (a torn copy) is also rejected, not misread.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_sidecar_is_an_io_error() {
        let path = std::env::temp_dir().join("blinkml-sidecar-definitely-missing.bin");
        assert!(matches!(load(&path), Err(WalError::Io(_))));
    }
}
