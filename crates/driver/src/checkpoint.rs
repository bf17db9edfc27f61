//! Binary checkpoint/restart for the fractional-step driver.
//!
//! A checkpoint stores the complete [`SimState`] — step index, time,
//! velocity, pressure — plus the scenario identity it belongs to, with every
//! `f64` written as its exact little-endian bit pattern.  Restarting from a
//! checkpoint therefore reproduces the uninterrupted trajectory **bitwise**:
//! the stepper is a pure function of the state (Δt is recomputed from the
//! restored velocity by the same CFL rule), so no auxiliary solver state
//! needs to be saved.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   8 B   "LVCKPT01"
//! name    u32 length + UTF-8 scenario registry name
//! resolution u32, viscosity f64, density f64   (scenario identity)
//! step    u64, time f64
//! velocity u64 length + f64 values (NDIME-interleaved)
//! pressure u64 length + f64 values
//! checksum u64   FNV-1a over everything after the magic
//! ```
//!
//! The checksum proves the bytes are the ones written, not that a writer
//! wrote them: [`load_checkpoint`] still bounds every length by the bytes
//! left before allocating, and refuses a payload that ends early or runs on
//! past the pressure field — all as [`io::ErrorKind::InvalidData`].
//!
//! ## The checkpoint ring
//!
//! A [`CheckpointRing`] of depth K keeps the last K generations as plain
//! files in this exact format, named `<base>.0` (newest) through
//! `<base>.K-1` (oldest).  A save rotates `.i → .i+1` (dropping the oldest)
//! and then writes `.0` with the same atomic tmp + fsync + rename protocol
//! as [`save_checkpoint`], so no crash point can lose more than the
//! in-flight generation.  [`CheckpointRing::load_latest`] walks `.0`, `.1`,
//! … — past `.K-1` while slot files exist, so a ring saved deeper than it
//! is read loses none of its generations — and returns the newest
//! generation that decodes and passes its checksum, reporting every
//! corrupt/truncated generation it had to skip —
//! a bit-flipped newest checkpoint degrades a restart by one save interval
//! instead of killing it.
//!
//! ## Saving and resuming a run
//!
//! Every front end (the `lv-server` supervisor, `simulate`, the tests)
//! checkpoints through two [`Stepper`] methods.  [`Stepper::checkpoint_on`]
//! saves a ring generation and then fires the checkpoint fault
//! (`ckpt-flip`, `ckpt-truncate`) the stepper's own fault plan holds for
//! the step, so a run has one plan for every fault kind.
//! [`Stepper::resume_on`] loads the newest intact generation, checks that
//! it belongs to the scenario of the [`Discretization`] it is handed and
//! builds the stepper on that (shared) discretization.  On a traced
//! team both record their `checkpoint/{save,load}` span and counter.  The
//! plain-file [`save_checkpoint`] / [`load_checkpoint`] pair is the format
//! underneath.

use crate::scenario::{Scenario, ScenarioKind};
use crate::stepper::{Discretization, SimState, Stepper, StepperConfig};
use lv_mesh::{Field, Mesh, VectorField};
use lv_runtime::Team;
use lv_trace::{counters, spans};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"LVCKPT01";

/// FNV-1a over a byte stream — tiny, dependency-free integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(invalid("checkpoint payload ends inside a field"));
        }
        let slice = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let len = self.u64()?;
        // Bound the length by the bytes left before allocating for it.
        if len > (self.remaining() / 8) as u64 {
            return Err(invalid("corrupt field length"));
        }
        let len = len as usize;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

/// The decoded contents of a checkpoint file.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Scenario registry name the run belonged to.
    pub scenario: String,
    /// Scenario resolution.
    pub resolution: usize,
    /// Scenario viscosity (exact bits).
    pub viscosity: f64,
    /// Scenario density (exact bits).
    pub density: f64,
    /// Completed steps.
    pub step: u64,
    /// Simulation time (exact bits).
    pub time: f64,
    /// Raw interleaved velocity values.
    pub velocity: Vec<f64>,
    /// Raw pressure values.
    pub pressure: Vec<f64>,
}

impl Checkpoint {
    /// Rebuilds a [`SimState`] over `mesh`, validating the field sizes.
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::InvalidData`] if the stored fields do not
    /// match the mesh.
    pub fn into_state(self, mesh: &Mesh) -> io::Result<SimState> {
        let n = mesh.num_nodes();
        if self.velocity.len() != lv_mesh::NDIME * n || self.pressure.len() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint fields ({} velocity / {} pressure values) do not match a \
                     {n}-node mesh",
                    self.velocity.len(),
                    self.pressure.len()
                ),
            ));
        }
        let mut velocity = VectorField::zeros(mesh);
        velocity.as_mut_slice().copy_from_slice(&self.velocity);
        let pressure = Field::from_values(mesh, self.pressure);
        Ok(SimState { step: self.step, time: self.time, velocity, pressure })
    }

    /// Checks that this checkpoint belongs to `scenario` (same kind,
    /// resolution and exact physical parameters).
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::InvalidData`] describing the first mismatch.
    pub fn validate_scenario(&self, scenario: &Scenario) -> io::Result<()> {
        let mismatch = |what: &str| {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint does not match the requested scenario: {what} differs"),
            ))
        };
        if ScenarioKind::from_name(&self.scenario) != Some(scenario.kind) {
            return mismatch("scenario kind");
        }
        if self.resolution != scenario.resolution {
            return mismatch("resolution");
        }
        if self.viscosity.to_bits() != scenario.viscosity.to_bits() {
            return mismatch("viscosity");
        }
        if self.density.to_bits() != scenario.density.to_bits() {
            return mismatch("density");
        }
        Ok(())
    }
}

/// Serializes `state` to `path` **atomically**: the bytes go to a
/// `<path>.tmp` sibling first and are renamed over the target only after a
/// successful `fsync`, so a crash (or full disk) mid-write can never
/// destroy the previous good checkpoint — the exact kill scenario periodic
/// checkpointing exists to survive.
///
/// # Errors
/// Any I/O error of creating, writing or renaming the file.
pub fn save_checkpoint(
    path: impl AsRef<Path>,
    scenario: &Scenario,
    state: &SimState,
) -> io::Result<()> {
    let mut payload = Vec::new();
    let name = scenario.kind.name().as_bytes();
    payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
    payload.extend_from_slice(name);
    payload.extend_from_slice(&(scenario.resolution as u32).to_le_bytes());
    payload.extend_from_slice(&scenario.viscosity.to_le_bytes());
    payload.extend_from_slice(&scenario.density.to_le_bytes());
    payload.extend_from_slice(&state.step.to_le_bytes());
    payload.extend_from_slice(&state.time.to_le_bytes());
    push_f64s(&mut payload, state.velocity.as_slice());
    push_f64s(&mut payload, state.pressure.as_slice());
    let checksum = fnv1a(&payload);

    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let write_tmp = || -> io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(MAGIC)?;
        file.write_all(&payload)?;
        file.write_all(&checksum.to_le_bytes())?;
        file.sync_all()
    };
    let result = write_tmp().and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Dominant payload size of a state's checkpoint: the field values
/// (everything else is a fixed few dozen header bytes).
fn state_bytes(state: &SimState) -> u64 {
    8 * (state.velocity.as_slice().len() + state.pressure.as_slice().len()) as u64
}

/// Reads and verifies a checkpoint from `path`.
///
/// # Errors
/// The I/O error of reading the file; [`io::ErrorKind::InvalidData`] for a
/// bad magic, a checksum mismatch, or a payload that does not decode to
/// exactly one checkpoint (see the module docs).
pub fn load_checkpoint(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
    // Sized from the file's metadata: the buffer is the file, no larger.
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(invalid("not an lv-driver checkpoint"));
    }
    let payload = &bytes[MAGIC.len()..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(invalid("checkpoint checksum mismatch"));
    }
    let mut r = Reader { data: payload, at: 0 };
    let name_len = r.u32()? as usize;
    let scenario = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| invalid("corrupt scenario name"))?;
    let resolution = r.u32()? as usize;
    let viscosity = r.f64()?;
    let density = r.f64()?;
    let step = r.u64()?;
    let time = r.f64()?;
    let velocity = r.f64s()?;
    let pressure = r.f64s()?;
    if r.remaining() > 0 {
        return Err(invalid("bytes after the pressure field"));
    }
    Ok(Checkpoint { scenario, resolution, viscosity, density, step, time, velocity, pressure })
}

/// A successful [`CheckpointRing::load_latest`]: which generation actually
/// restored the run, and what was skipped to get there.
#[derive(Debug)]
pub struct RingRecovery {
    /// The decoded checkpoint.
    pub checkpoint: Checkpoint,
    /// Generation it came from (0 = newest slot).
    pub generation: usize,
    /// The slot file it was read from.
    pub path: PathBuf,
    /// Newer generations that existed but failed to load, with the error
    /// message each produced (empty on a clean restart).
    pub skipped: Vec<(PathBuf, String)>,
}

/// A rotating ring of the last K checkpoints (see the module docs).
#[derive(Debug, Clone)]
pub struct CheckpointRing {
    base: PathBuf,
    depth: usize,
}

impl CheckpointRing {
    /// A ring of `depth ≥ 1` generations rooted at `base` (the slot files
    /// are `<base>.0` … `<base>.depth-1`).
    pub fn new(base: impl Into<PathBuf>, depth: usize) -> Self {
        assert!(depth >= 1, "a checkpoint ring needs at least one slot");
        CheckpointRing { base: base.into(), depth }
    }

    /// Number of generations the ring keeps.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The slot file of `generation` (0 = newest).
    pub fn slot(&self, generation: usize) -> PathBuf {
        let mut name = self.base.as_os_str().to_owned();
        name.push(format!(".{generation}"));
        PathBuf::from(name)
    }

    /// Saves a new generation: rotates every existing slot one step towards
    /// the oldest (dropping `.depth-1`) and writes the state to `.0`
    /// atomically.  Returns the path of the new newest slot.
    ///
    /// # Errors
    /// Any I/O error of the rotation renames or the checkpoint write.
    pub fn save(&self, scenario: &Scenario, state: &SimState) -> io::Result<PathBuf> {
        let oldest = self.slot(self.depth - 1);
        if oldest.exists() {
            std::fs::remove_file(&oldest)?;
        }
        for generation in (0..self.depth - 1).rev() {
            let from = self.slot(generation);
            if from.exists() {
                std::fs::rename(&from, self.slot(generation + 1))?;
            }
        }
        let newest = self.slot(0);
        save_checkpoint(&newest, scenario, state)?;
        Ok(newest)
    }

    /// Loads the newest generation that decodes and passes its checksum,
    /// skipping (and reporting) corrupt, truncated or missing newer slots.
    /// The walk reads past the ring's own depth while slot files exist, so
    /// a ring written deeper than it is read still yields its older
    /// generations.
    ///
    /// # Errors
    /// [`io::ErrorKind::NotFound`] when no slot exists at all, or the last
    /// slot's error (wrapped with the list of everything skipped) when every
    /// existing generation is damaged.
    pub fn load_latest(&self) -> io::Result<RingRecovery> {
        let mut skipped = Vec::new();
        let mut any_exist = false;
        for generation in 0.. {
            let path = self.slot(generation);
            if !path.exists() {
                if generation >= self.depth {
                    break;
                }
                continue;
            }
            any_exist = true;
            match load_checkpoint(&path) {
                Ok(checkpoint) => {
                    return Ok(RingRecovery { checkpoint, generation, path, skipped })
                }
                Err(e) => skipped.push((path, e.to_string())),
            }
        }
        if !any_exist {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no checkpoint ring generations at {}.*", self.base.display()),
            ));
        }
        let detail = skipped
            .iter()
            .map(|(p, e)| format!("{}: {e}", p.display()))
            .collect::<Vec<_>>()
            .join("; ");
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("every checkpoint ring generation is damaged ({detail})"),
        ))
    }
}

/// A stepper resumed by [`Stepper::resume_on`], with where its state came
/// from.
#[derive(Debug)]
pub struct Resumed {
    /// The stepper, at the restored step.
    pub stepper: Stepper,
    /// Generation the state came from (0 = newest slot).
    pub generation: usize,
    /// The slot file it was read from.
    pub path: PathBuf,
    /// Newer generations that existed but failed to load, with the error
    /// message each produced (empty on a clean restart).
    pub skipped: Vec<(PathBuf, String)>,
}

impl Stepper {
    /// Resumes the scenario of `shared` from the newest intact generation
    /// of `ring`, on `shared` ([`Stepper::from_shared`]): the generation
    /// must belong to the scenario and fit its mesh.  On a traced team the read is a `checkpoint/load` span (`bytes` = decoded
    /// field payload, `iters` = 1 when a generation decoded, `aux` = that
    /// generation) plus [`counters::CHECKPOINT_LOADS`] when it did.
    ///
    /// # Errors
    /// [`io::ErrorKind::NotFound`] for an empty ring, the error of
    /// [`CheckpointRing::load_latest`] when every generation is damaged, and
    /// [`io::ErrorKind::InvalidData`] for a generation of another scenario
    /// or mesh.
    pub fn resume_on(
        team: &Team,
        shared: &Arc<Discretization>,
        config: StepperConfig,
        ring: &CheckpointRing,
    ) -> io::Result<Resumed> {
        let trace = team.trace();
        let span = trace.map(|t| t.span(spans::CHECKPOINT_LOAD, 0));
        let result = ring.load_latest();
        if let Some(s) = span {
            let (bytes, generation) = result.as_ref().map_or((0, 0), |r| {
                let fields = r.checkpoint.velocity.len() + r.checkpoint.pressure.len();
                (8 * fields as u64, r.generation as u64)
            });
            s.iters(result.is_ok() as u64).bytes(bytes).aux(generation).finish();
        }
        let RingRecovery { checkpoint, generation, path, skipped } = result?;
        if let Some(t) = trace {
            t.add(counters::CHECKPOINT_LOADS, 1);
        }
        checkpoint.validate_scenario(shared.scenario())?;
        let state = checkpoint.into_state(shared.mesh())?;
        let stepper = Stepper::from_shared(Arc::clone(shared), config, state);
        Ok(Resumed { stepper, generation, path, skipped })
    }

    /// Saves the state as a new generation of `ring`, then applies the
    /// checkpoint fault the stepper's own [`FaultPlan`](crate::FaultPlan)
    /// holds for this step, if any, to the slot just written
    /// ([`FaultPlan::corrupt_checkpoint`](crate::FaultPlan::corrupt_checkpoint)).
    /// Returns the newest slot and what the fault did (`None`: none was
    /// due).  On a traced team the rotation and write are a
    /// `checkpoint/save` span (`bytes` = field payload, `iters` = 1 on
    /// success / 0 on failure) plus [`counters::CHECKPOINT_SAVES`] when the
    /// write lands.
    ///
    /// # Errors
    /// Any I/O error of the ring save or of the injected corruption.
    pub fn checkpoint_on(
        &mut self,
        team: &Team,
        ring: &CheckpointRing,
    ) -> io::Result<(PathBuf, Option<String>)> {
        let trace = team.trace();
        let span =
            trace.map(|t| t.span(spans::CHECKPOINT_SAVE, 0).bytes(state_bytes(self.state())));
        let result = ring.save(self.scenario(), self.state());
        if let Some(s) = span {
            s.iters(result.is_ok() as u64).finish();
        }
        let newest = result?;
        if let Some(t) = trace {
            t.add(counters::CHECKPOINT_SAVES, 1);
        }
        let step = self.state().step;
        let fault = match self.fault_plan.as_mut() {
            Some(plan) => plan.corrupt_checkpoint(step, &newest)?,
            None => None,
        };
        Ok((newest, fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lv_ckpt_test_{tag}_{}.bin", std::process::id()))
    }

    fn sample() -> (Scenario, Mesh, SimState) {
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 3);
        let mesh = scenario.build_mesh();
        let (mut velocity, mut pressure) = scenario.initial_state(&mesh);
        velocity.set(5, lv_mesh::Vec3::new(0.123456789, -9.87e-5, 3.25));
        *pressure.value_mut(7) = -0.5f64.powi(30);
        let state = SimState { step: 42, time: 1.0625, velocity, pressure };
        (scenario, mesh, state)
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let (scenario, mesh, state) = sample();
        let path = temp_path("roundtrip");
        save_checkpoint(&path, &scenario, &state).expect("save");
        let loaded = load_checkpoint(&path).expect("load");
        std::fs::remove_file(&path).ok();
        loaded.validate_scenario(&scenario).expect("identity");
        assert_eq!(loaded.step, 42);
        assert_eq!(loaded.time.to_bits(), state.time.to_bits());
        let restored = loaded.into_state(&mesh).expect("state");
        for (a, b) in state.velocity.as_slice().iter().zip(restored.velocity.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in state.pressure.as_slice().iter().zip(restored.pressure.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_and_mismatch_are_detected() {
        let (scenario, mesh, state) = sample();
        let path = temp_path("corrupt");
        save_checkpoint(&path, &scenario, &state).expect("save");
        // Flip one payload byte: the checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_checkpoint(&path).is_err());
        std::fs::remove_file(&path).ok();

        // Wrong magic.
        let path = temp_path("magic");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        assert!(load_checkpoint(&path).is_err());
        std::fs::remove_file(&path).ok();

        // Scenario mismatch and mesh mismatch.
        let path = temp_path("mismatch");
        save_checkpoint(&path, &scenario, &state).expect("save");
        let loaded = load_checkpoint(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let other = Scenario::new(ScenarioKind::Channel, 3);
        assert!(loaded.validate_scenario(&other).is_err());
        let finer = Scenario::new(ScenarioKind::LidDrivenCavity, 5);
        assert!(loaded.validate_scenario(&finer).is_err());
        let wrong_mesh = finer.build_mesh();
        assert!(loaded.into_state(&wrong_mesh).is_err());
        let _ = mesh;
    }

    #[test]
    fn payload_and_checksum_bit_flips_are_invalid_data() {
        let (scenario, _mesh, state) = sample();
        let path = temp_path("bitflip");
        save_checkpoint(&path, &scenario, &state).expect("save");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // A single bit flipped anywhere in the payload, and anywhere in the
        // trailing checksum, must both surface as the checksum-mismatch
        // InvalidData error.
        for at in [MAGIC.len() + 1, bytes.len() / 2, bytes.len() - 8, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            let path = temp_path(&format!("bitflip_{at}"));
            std::fs::write(&path, &corrupt).unwrap();
            let err = load_checkpoint(&path).expect_err("corrupt checkpoint must not load");
            std::fs::remove_file(&path).ok();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
            assert!(err.to_string().contains("checksum"), "flip at {at}: {err}");
        }
    }

    fn ring_base(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lv_ring_test_{tag}_{}", std::process::id()))
    }

    fn clear_ring(ring: &CheckpointRing) {
        for generation in 0..ring.depth() {
            std::fs::remove_file(ring.slot(generation)).ok();
        }
    }

    #[test]
    fn ring_rotates_and_loads_the_newest_generation() {
        let (scenario, _mesh, mut state) = sample();
        let ring = CheckpointRing::new(ring_base("rotate"), 3);
        clear_ring(&ring);
        for step in [10u64, 11, 12, 13] {
            state.step = step;
            let newest = ring.save(&scenario, &state).expect("ring save");
            assert_eq!(newest, ring.slot(0));
        }
        // Depth 3: steps 13/12/11 survive, 10 was dropped.
        for (generation, step) in [(0usize, 13u64), (1, 12), (2, 11)] {
            let ckpt = load_checkpoint(ring.slot(generation)).expect("slot loads");
            assert_eq!(ckpt.step, step, "generation {generation}");
        }
        let recovery = ring.load_latest().expect("latest");
        assert_eq!(recovery.generation, 0);
        assert_eq!(recovery.checkpoint.step, 13);
        assert!(recovery.skipped.is_empty());
        clear_ring(&ring);
    }

    #[test]
    fn ring_falls_back_past_corrupt_and_truncated_generations() {
        let (scenario, _mesh, mut state) = sample();
        let ring = CheckpointRing::new(ring_base("fallback"), 3);
        clear_ring(&ring);
        for step in [20u64, 21, 22] {
            state.step = step;
            ring.save(&scenario, &state).expect("ring save");
        }

        // Newest generation bit-flipped: fall back to generation 1.
        let mut bytes = std::fs::read(ring.slot(0)).unwrap();
        bytes[30] ^= 0xff;
        std::fs::write(ring.slot(0), &bytes).unwrap();
        let recovery = ring.load_latest().expect("fallback");
        assert_eq!(recovery.generation, 1);
        assert_eq!(recovery.checkpoint.step, 21);
        assert_eq!(recovery.skipped.len(), 1);
        assert_eq!(recovery.skipped[0].0, ring.slot(0));
        assert!(recovery.skipped[0].1.contains("checksum"));

        // Generation 1 truncated too: generation 2 carries the restart.
        let bytes = std::fs::read(ring.slot(1)).unwrap();
        std::fs::write(ring.slot(1), &bytes[..bytes.len() / 2]).unwrap();
        let recovery = ring.load_latest().expect("second fallback");
        assert_eq!(recovery.generation, 2);
        assert_eq!(recovery.checkpoint.step, 20);
        assert_eq!(recovery.skipped.len(), 2);

        // Every generation damaged: a structured InvalidData error naming
        // each slot, never a panic.
        let bytes = std::fs::read(ring.slot(2)).unwrap();
        std::fs::write(ring.slot(2), &bytes[..10]).unwrap();
        let err = ring.load_latest().expect_err("all damaged");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        for generation in 0..3 {
            let name = ring.slot(generation).display().to_string();
            assert!(err.to_string().contains(&name), "{err} must name {name}");
        }
        clear_ring(&ring);

        // An empty ring is NotFound, not InvalidData.
        let empty = CheckpointRing::new(ring_base("empty"), 2);
        clear_ring(&empty);
        assert_eq!(empty.load_latest().expect_err("empty").kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_shallower_reader_scans_past_its_depth_into_older_generations() {
        let (scenario, _mesh, mut state) = sample();
        let base = ring_base("shallow");
        let deep = CheckpointRing::new(&base, 3);
        clear_ring(&deep);
        for step in [30u64, 31, 32] {
            state.step = step;
            deep.save(&scenario, &state).expect("ring save");
        }
        let mut bytes = std::fs::read(deep.slot(0)).unwrap();
        bytes[30] ^= 0xff;
        std::fs::write(deep.slot(0), &bytes).unwrap();

        // A depth-1 reader of the same base: `.0` is damaged, `.1` (past its
        // own depth) carries the restart.
        let shallow = CheckpointRing::new(&base, 1);
        let recovery = shallow.load_latest().expect("a generation past the depth");
        assert_eq!((recovery.generation, recovery.checkpoint.step), (1, 31));
        assert_eq!(recovery.path, deep.slot(1));
        let skipped: Vec<_> = recovery.skipped.iter().map(|(path, _)| path.clone()).collect();
        assert_eq!(skipped, [deep.slot(0)]);

        // Past the depth the walk stops at the first missing slot.
        std::fs::remove_file(deep.slot(1)).unwrap();
        let err = shallow.load_latest().expect_err("`.1` is gone, `.2` is not read");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        clear_ring(&deep);
    }

    #[test]
    fn a_stepper_saves_and_resumes_itself_with_spans_counters_and_its_own_faults() {
        use crate::fault::{FaultKind, FaultPlan};
        use lv_trace::{summary::RunSummary, TraceConfig};
        let scenario = Scenario::new(ScenarioKind::LidDrivenCavity, 3);
        let config = StepperConfig::default().with_vector_size(32);
        let mut team = Team::with_trace(1, TraceConfig::default());
        let ring = CheckpointRing::new(ring_base("stepper"), 2);
        clear_ring(&ring);
        let shared = Arc::new(Discretization::new(scenario.clone(), 32));
        // An empty ring: a load span with iters = 0, no counter bump.
        let err =
            Stepper::resume_on(&team, &shared, config.clone(), &ring).expect_err("empty ring");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);

        let plan = FaultPlan::new(5).with_fault(FaultKind::CheckpointTruncate, 1);
        let mut stepper = Stepper::new(scenario.clone(), config.clone().with_fault_plan(plan));
        stepper.step_on(&team).expect("step");
        let (newest, fault) = stepper.checkpoint_on(&team, &ring).expect("save");
        assert_eq!(newest, ring.slot(0));
        assert!(fault.expect("the truncation is due").starts_with("truncated"));
        let (_, fault) = stepper.checkpoint_on(&team, &ring).expect("save");
        assert_eq!(fault, None, "the truncation fires on the first save only");
        assert_eq!(stepper.fault_plan().map(FaultPlan::pending), Some(0));

        let resumed = Stepper::resume_on(&team, &shared, config.clone(), &ring).expect("resume");
        assert_eq!((resumed.generation, resumed.path), (0, ring.slot(0)));
        assert!(resumed.skipped.is_empty());
        assert_eq!(resumed.stepper.state().step, 1);
        let other = Arc::new(Discretization::new(Scenario::new(ScenarioKind::Channel, 3), 32));
        let err = Stepper::resume_on(&team, &other, config, &ring).expect_err("another scenario");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        clear_ring(&ring);

        let summary = RunSummary::from_trace(team.trace_mut().expect("traced team"));
        assert_eq!(summary.counter("checkpoint_saves"), Some(2));
        assert_eq!(summary.counter("checkpoint_loads"), Some(2));
        let save = summary.span("checkpoint/save").expect("save span");
        assert_eq!((save.events, save.iters), (2, 2));
        assert_eq!(save.bytes, 2 * state_bytes(stepper.state()));
        let load = summary.span("checkpoint/load").expect("load span");
        assert_eq!((load.events, load.iters), (3, 2), "the empty ring carries iters = 0");
    }
}
