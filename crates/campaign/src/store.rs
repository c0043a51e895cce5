//! A durable, crash-consistent home for campaign checkpoints.
//!
//! The paper's beam campaigns survive their own subject because the
//! recovery chain outside the device under test is boring and robust:
//! logs land on stable storage, and a restarted host picks up exactly
//! where the last one left off. [`CheckpointStore`] is that chain in
//! software:
//!
//! * **Append-only history** — every checkpoint is appended to
//!   `history.jsonl` and fsynced, so the full campaign trajectory
//!   survives for audit.
//! * **Atomic latest pointer** — the most recent checkpoint per
//!   [`CampaignKey`] is also written to `latest-<hash>.json` via the classic
//!   temp-file → fsync → rename dance; a reader never observes a partial
//!   file, no matter where the writer was killed.
//! * **Tolerant recovery** — [`CheckpointStore::load`] falls back from a
//!   damaged latest pointer to a backward scan of the history, accepting
//!   a truncated or corrupt tail line (the classic crash-mid-append
//!   signature) and surfacing what it had to discard through
//!   [`CheckpointStore::warnings`] instead of silently restarting from
//!   zero.
//! * **Advisory lock** — a `LOCK` file (holder pid inside) rejects a
//!   second concurrent writer; a lock left by a dead process is detected
//!   and broken.
//! * **Bounded retries** — transient write errors (`EINTR`, `ENOSPC`)
//!   are retried with exponential backoff a fixed number of times before
//!   the error is surfaced.
//!
//! Quarantined trials (see [`crate::QuarantineRecord`]) are appended to
//! `quarantine.jsonl` in the same directory for offline reproduction.

use crate::checkpoint::{CampaignKey, Checkpoint};
use crate::supervise::QuarantineRecord;
use std::fmt;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Transient-error retry schedule: attempt, then up to this many retries
/// with exponential backoff starting at [`BACKOFF_BASE`].
const MAX_RETRIES: u32 = 4;
/// First backoff delay; doubles per retry (1, 2, 4, 8 ms).
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// A store failure after retries were exhausted (or for conditions that
/// retrying cannot fix, like a held lock).
#[derive(Debug)]
pub enum StoreError {
    /// Another live process holds the store's advisory lock.
    Locked {
        /// The lock file that blocked us.
        path: PathBuf,
        /// The holder's pid as recorded in the lock file.
        holder: String,
    },
    /// An I/O operation failed (after transient-error retries).
    Io {
        /// What the store was doing, e.g. `"append checkpoint"`.
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Locked { path, holder } => {
                write!(f, "checkpoint store {} is locked by pid {holder}", path.display())
            }
            StoreError::Io { op, path, source } => {
                write!(f, "checkpoint store: {op} {} failed: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Locked { .. } => None,
        }
    }
}

/// The filesystem surface the store needs, factored out so tests can
/// stand in a failing filesystem (ENOSPC bursts, interrupted writes)
/// without touching the retry or crash-consistency logic above it.
pub(crate) trait StoreIo {
    /// Create-or-truncate `path` with `bytes` and fsync it.
    fn write_sync(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path` (creating it) and fsync.
    fn append_sync(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically rename `from` onto `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Create `path` exclusively (failing if it exists) with `bytes`.
    fn create_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Read the whole file; `NotFound` means "no file yet".
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// Remove a file.
    fn remove(&mut self, path: &Path) -> io::Result<()>;
    /// Back off before a retry. The real store sleeps; tests count.
    fn backoff(&mut self, delay: Duration);
}

/// The real filesystem.
struct FsIo;

impl StoreIo for FsIo {
    fn write_sync(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append_sync(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create_new(true).write(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn backoff(&mut self, delay: Duration) {
        std::thread::sleep(delay);
    }
}

/// Is this error worth retrying? `EINTR` and `ENOSPC` are the transient
/// conditions the beam-room logging hosts actually hit (signal delivery
/// and a log partition briefly full); everything else surfaces at once.
fn transient(e: &io::Error) -> bool {
    e.kind() == ErrorKind::Interrupted || e.raw_os_error() == Some(28 /* ENOSPC */)
}

/// A durable checkpoint directory. See the module docs for the layout
/// and crash-consistency contract.
pub struct CheckpointStore {
    dir: PathBuf,
    io: Box<dyn StoreIo + Send>,
    locked: bool,
    warnings: Vec<String>,
    damage_events: u64,
    lock_breaks: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) the store at `dir` and take its
    /// advisory lock.
    ///
    /// # Errors
    /// [`StoreError::Locked`] when another live process holds the lock;
    /// [`StoreError::Io`] when the directory cannot be created or the
    /// lock cannot be written.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            op: "create store directory",
            path: dir.clone(),
            source,
        })?;
        Self::open_with_io(dir, Box::new(FsIo))
    }

    pub(crate) fn open_with_io(
        dir: PathBuf,
        mut io: Box<dyn StoreIo + Send>,
    ) -> Result<CheckpointStore, StoreError> {
        let lock = dir.join("LOCK");
        let pid = std::process::id().to_string();
        let mut warnings = Vec::new();
        let mut lock_breaks = 0;
        match io.create_new(&lock, pid.as_bytes()) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                let holder = io.read_to_string(&lock).unwrap_or_default().trim().to_string();
                if lock_holder_alive(&holder) {
                    return Err(StoreError::Locked { path: lock, holder });
                }
                // Stale lock from a dead process: break it and take over.
                warnings.push(format!(
                    "broke stale lock left by dead pid {holder} in {}",
                    dir.display()
                ));
                lock_breaks += 1;
                io.write_sync(&lock, pid.as_bytes()).map_err(|source| StoreError::Io {
                    op: "replace stale lock",
                    path: lock,
                    source,
                })?;
            }
            Err(source) => {
                return Err(StoreError::Io { op: "create lock", path: lock, source });
            }
        }
        Ok(CheckpointStore { dir, io, locked: true, warnings, damage_events: 0, lock_breaks })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Recovery diagnostics accumulated by [`CheckpointStore::load`] and
    /// [`CheckpointStore::open`]: damaged lines skipped, stale locks
    /// broken. Surfaced so harnesses can log them; empty on clean runs.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Damage events seen so far: torn/corrupt latest pointers and
    /// discarded history lines. Campaign loops export this as the
    /// `campaign.store.damage` counter.
    pub fn damage_events(&self) -> u64 {
        self.damage_events
    }

    /// Stale locks broken when this store was opened (exported as
    /// `campaign.store.lock_broken`).
    pub fn lock_breaks(&self) -> u64 {
        self.lock_breaks
    }

    fn history_path(&self) -> PathBuf {
        self.dir.join("history.jsonl")
    }

    fn latest_path(&self, key: &CampaignKey) -> PathBuf {
        self.dir.join(format!("latest-{:016x}.json", crate::engine::fnv1a(&key.canonical())))
    }

    fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.jsonl")
    }

    /// Durably record a checkpoint: append to the history (fsync), then
    /// atomically replace the key's latest pointer.
    ///
    /// # Errors
    /// [`StoreError::Io`] when a write still fails after the bounded
    /// transient-error retries.
    pub fn save(&mut self, cp: &Checkpoint) -> Result<(), StoreError> {
        let line = format!("{}\n", cp.to_json_line());
        let history = self.history_path();
        with_retry(self.io.as_mut(), "append checkpoint", &history, |io| {
            io.append_sync(&history, line.as_bytes())
        })?;
        let latest = self.latest_path(&cp.key);
        let tmp = latest.with_extension("json.tmp");
        with_retry(self.io.as_mut(), "write latest checkpoint", &tmp, |io| {
            io.write_sync(&tmp, line.as_bytes())?;
            io.rename(&tmp, &latest)
        })?;
        Ok(())
    }

    /// Recover the most recent checkpoint whose key equals `key` in every
    /// field, or `None` when the store has never seen this campaign.
    ///
    /// The latest pointer is tried first; if it is missing or damaged,
    /// the full history is scanned with the same full-key match
    /// (tolerating a truncated or corrupt tail). Anything skipped is
    /// reported through [`CheckpointStore::warnings`].
    ///
    /// # Errors
    /// [`StoreError::Io`] only for real I/O failures — damage is a
    /// warning, not an error.
    pub fn load(&mut self, key: &CampaignKey) -> Result<Option<Checkpoint>, StoreError> {
        let latest = self.latest_path(key);
        match self.io.read_to_string(&latest) {
            Ok(text) => {
                let scan = Checkpoint::scan_stream(&text, key);
                if let Some(cp) = scan.checkpoint {
                    return Ok(Some(cp));
                }
                self.warnings.push(format!(
                    "latest checkpoint {} is damaged ({}); falling back to history scan",
                    latest.display(),
                    scan.first_error.unwrap_or_else(|| "empty".to_string())
                ));
                self.damage_events += 1;
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(source) => {
                return Err(StoreError::Io { op: "read latest checkpoint", path: latest, source });
            }
        }
        let history = self.history_path();
        let text = match self.io.read_to_string(&history) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(source) => {
                return Err(StoreError::Io { op: "read history", path: history, source });
            }
        };
        let scan = Checkpoint::scan_stream(&text, key);
        if scan.damaged() {
            self.warnings.push(format!(
                "history {}: discarded {} of {} lines ({})",
                history.display(),
                scan.lines_rejected,
                scan.lines_scanned,
                scan.first_error.as_deref().unwrap_or("unknown damage")
            ));
            self.damage_events += scan.lines_rejected.max(1);
        }
        Ok(scan.checkpoint)
    }

    /// Append a quarantined trial to `quarantine.jsonl` for offline
    /// reproduction.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the append still fails after retries.
    pub fn quarantine(&mut self, record: &QuarantineRecord) -> Result<(), StoreError> {
        let line = format!("{}\n", record.to_json_line());
        let path = self.quarantine_path();
        with_retry(self.io.as_mut(), "append quarantine record", &path, |io| {
            io.append_sync(&path, line.as_bytes())
        })
    }
}

impl Drop for CheckpointStore {
    fn drop(&mut self) {
        if self.locked {
            let lock = self.dir.join("LOCK");
            let _ = self.io.remove(&lock);
        }
    }
}

/// Run `op`, retrying transient failures up to [`MAX_RETRIES`] times
/// with exponential backoff.
fn with_retry(
    io: &mut (dyn StoreIo + Send),
    op: &'static str,
    path: &Path,
    mut f: impl FnMut(&mut (dyn StoreIo + Send)) -> io::Result<()>,
) -> Result<(), StoreError> {
    let mut attempt = 0;
    loop {
        match f(io) {
            Ok(()) => return Ok(()),
            Err(source) if transient(&source) && attempt < MAX_RETRIES => {
                io.backoff(BACKOFF_BASE * 2u32.pow(attempt));
                attempt += 1;
            }
            Err(source) => {
                return Err(StoreError::Io { op, path: path.to_path_buf(), source });
            }
        }
    }
}

/// Is the pid recorded in a lock file still a live process? Uses
/// `/proc/<pid>` where available; a malformed pid is treated as dead
/// (the lock is garbage either way).
fn lock_holder_alive(holder: &str) -> bool {
    let Ok(pid) = holder.parse::<u32>() else { return false };
    if pid == std::process::id() {
        // Our own pid in a leftover lock means a previous incarnation
        // crashed and the pid wrapped around to us: stale.
        return false;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        // Without a portable liveness probe, assume held: refusing a
        // possibly-stale lock is safer than corrupting a live store.
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stats::OutcomeCounts;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashMap, VecDeque};
    use std::rc::Rc;

    /// An in-memory filesystem with an injectable error schedule — the
    /// "failing disk" the beam-room logging host occasionally is.
    #[derive(Default)]
    struct MemFs {
        files: HashMap<PathBuf, Vec<u8>>,
        /// Errors handed out, in order, to the named ops.
        fail: HashMap<&'static str, VecDeque<io::Error>>,
        backoffs: Vec<Duration>,
        /// Every content the `latest-*.json` path has ever held, so the
        /// atomic-rename invariant (no reader ever sees a partial file)
        /// can be asserted over the whole history.
        latest_states: Vec<Vec<u8>>,
    }

    #[derive(Clone, Default)]
    struct MemIo(Rc<RefCell<MemFs>>);

    // The store requires `Send`; tests are single-threaded, so the Rc
    // never actually crosses a thread.
    unsafe impl Send for MemIo {}

    fn enospc() -> io::Error {
        io::Error::from_raw_os_error(28)
    }

    impl MemIo {
        fn inject(&self, op: &'static str, errors: Vec<io::Error>) {
            self.0.borrow_mut().fail.entry(op).or_default().extend(errors);
        }

        fn take_fail(&self, op: &'static str) -> Option<io::Error> {
            self.0.borrow_mut().fail.get_mut(op).and_then(VecDeque::pop_front)
        }

        fn contents(&self, path: &Path) -> Option<Vec<u8>> {
            self.0.borrow().files.get(path).cloned()
        }

        fn record_latest(&self, path: &Path) {
            if path.to_string_lossy().contains("latest-") && path.extension().unwrap() == "json" {
                let state = self.0.borrow().files.get(path).cloned().unwrap_or_default();
                self.0.borrow_mut().latest_states.push(state);
            }
        }
    }

    impl StoreIo for MemIo {
        fn write_sync(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if let Some(e) = self.take_fail("write") {
                return Err(e);
            }
            self.0.borrow_mut().files.insert(path.to_path_buf(), bytes.to_vec());
            self.record_latest(path);
            Ok(())
        }

        fn append_sync(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if let Some(e) = self.take_fail("append") {
                return Err(e);
            }
            self.0
                .borrow_mut()
                .files
                .entry(path.to_path_buf())
                .or_default()
                .extend_from_slice(bytes);
            Ok(())
        }

        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            if let Some(e) = self.take_fail("rename") {
                return Err(e);
            }
            let moved = self
                .0
                .borrow_mut()
                .files
                .remove(from)
                .ok_or_else(|| io::Error::from(ErrorKind::NotFound))?;
            self.0.borrow_mut().files.insert(to.to_path_buf(), moved);
            self.record_latest(to);
            Ok(())
        }

        fn create_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let mut fs = self.0.borrow_mut();
            if fs.files.contains_key(path) {
                return Err(ErrorKind::AlreadyExists.into());
            }
            fs.files.insert(path.to_path_buf(), bytes.to_vec());
            Ok(())
        }

        fn read_to_string(&self, path: &Path) -> io::Result<String> {
            match self.0.borrow().files.get(path) {
                Some(bytes) => Ok(String::from_utf8_lossy(bytes).into_owned()),
                None => Err(ErrorKind::NotFound.into()),
            }
        }

        fn remove(&mut self, path: &Path) -> io::Result<()> {
            self.0.borrow_mut().files.remove(path);
            Ok(())
        }

        fn backoff(&mut self, delay: Duration) {
            self.0.borrow_mut().backoffs.push(delay);
        }
    }

    fn key(label: &str) -> CampaignKey {
        CampaignKey::new(label.to_string(), 0, &crate::Budget::fixed(320).seed(7))
    }

    fn checkpoint(label: &str, shards: u32) -> Checkpoint {
        let trials = shards as u64 * 32;
        Checkpoint {
            key: key(label),
            shards_done: shards,
            trials,
            counts: OutcomeCounts { sdc: 1, due: 1, masked: trials - 2 },
            direct: BTreeMap::new(),
        }
    }

    fn open_mem() -> (CheckpointStore, MemIo) {
        let io = MemIo::default();
        let store =
            CheckpointStore::open_with_io(PathBuf::from("/mem"), Box::new(io.clone())).unwrap();
        (store, io)
    }

    #[test]
    fn save_then_load_round_trips() {
        let (mut store, _io) = open_mem();
        let cp = checkpoint("a/b/c", 3);
        store.save(&cp).unwrap();
        assert_eq!(store.load(&key("a/b/c")).unwrap(), Some(cp));
        assert_eq!(store.load(&key("other")).unwrap(), None);
        assert!(store.warnings().is_empty());
    }

    #[test]
    fn transient_enospc_is_retried_with_exponential_backoff() {
        let (mut store, io) = open_mem();
        io.inject("append", vec![enospc(), enospc()]);
        store.save(&checkpoint("a", 1)).unwrap();
        let backoffs = io.0.borrow().backoffs.clone();
        assert_eq!(backoffs, vec![Duration::from_millis(1), Duration::from_millis(2)]);
        // The history holds exactly one line: failed attempts wrote
        // nothing.
        let text = io.contents(&store.history_path()).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 1);
    }

    #[test]
    fn interrupted_writes_are_retried() {
        let (mut store, io) = open_mem();
        io.inject("write", vec![ErrorKind::Interrupted.into()]);
        store.save(&checkpoint("a", 1)).unwrap();
        assert_eq!(store.load(&key("a")).unwrap(), Some(checkpoint("a", 1)));
    }

    #[test]
    fn persistent_enospc_surfaces_after_bounded_retries() {
        let (mut store, io) = open_mem();
        io.inject("append", (0..16).map(|_| enospc()).collect());
        let err = store.save(&checkpoint("a", 1)).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "append checkpoint", .. }), "{err}");
        // One initial attempt plus MAX_RETRIES retries, then give up.
        assert_eq!(io.0.borrow().backoffs.len(), MAX_RETRIES as usize);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let (mut store, io) = open_mem();
        io.inject("append", vec![ErrorKind::PermissionDenied.into()]);
        assert!(store.save(&checkpoint("a", 1)).is_err());
        assert!(io.0.borrow().backoffs.is_empty());
    }

    #[test]
    fn latest_pointer_is_never_partial() {
        let (mut store, io) = open_mem();
        // Interleave failures in both the tmp write and the rename.
        io.inject("write", vec![enospc()]);
        store.save(&checkpoint("a", 1)).unwrap();
        io.inject("rename", vec![enospc()]);
        store.save(&checkpoint("a", 2)).unwrap();
        store.save(&checkpoint("a", 3)).unwrap();
        // Every state the latest path ever held was a complete, parseable
        // checkpoint — a reader can never observe a torn file because the
        // content only ever changes by whole-file rename.
        let states = io.0.borrow().latest_states.clone();
        assert_eq!(states.len(), 3);
        for state in states {
            let text = String::from_utf8(state).unwrap();
            assert!(
                Checkpoint::scan_stream(&text, &key("a")).checkpoint.is_some(),
                "torn: {text:?}"
            );
        }
        assert_eq!(store.load(&key("a")).unwrap(), Some(checkpoint("a", 3)));
    }

    #[test]
    fn load_falls_back_from_damaged_latest_to_history() {
        let (mut store, io) = open_mem();
        store.save(&checkpoint("a", 1)).unwrap();
        store.save(&checkpoint("a", 2)).unwrap();
        // Corrupt the latest pointer the way a crash mid-page-flush
        // does: truncate it.
        let latest = store.latest_path(&key("a"));
        let mut bytes = io.contents(&latest).unwrap();
        bytes.truncate(bytes.len() / 2);
        io.0.borrow_mut().files.insert(latest, bytes);
        assert_eq!(store.load(&key("a")).unwrap(), Some(checkpoint("a", 2)));
        assert!(store.warnings().iter().any(|w| w.contains("damaged")), "{:?}", store.warnings());
    }

    #[test]
    fn history_fallback_matches_the_full_key() {
        let (mut store, io) = open_mem();
        // Same label, different ceiling: a different campaign, saved last.
        let mine = checkpoint("a", 2);
        let mut other = checkpoint("a", 3);
        other.key.ceiling = 100;
        store.save(&mine).unwrap();
        store.save(&other).unwrap();
        // Tear this campaign's latest pointer: recovery scans the history
        // and must skip the same-label checkpoint of the other budget.
        let latest = store.latest_path(&mine.key);
        io.0.borrow_mut().files.insert(latest, b"{\"report\":\"campaign.chec".to_vec());
        assert_eq!(store.load(&mine.key).unwrap(), Some(mine));
        assert_eq!(store.load(&other.key).unwrap(), Some(other));
    }

    #[test]
    fn load_tolerates_truncated_history_tail() {
        let (mut store, io) = open_mem();
        store.save(&checkpoint("a", 1)).unwrap();
        // Crash mid-append: the history's last line is torn and the
        // latest pointer was never updated past it.
        let torn = checkpoint("a", 2).to_json_line();
        let history = store.history_path();
        io.0.borrow_mut()
            .files
            .get_mut(&history)
            .unwrap()
            .extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        io.0.borrow_mut().files.remove(&store.latest_path(&key("a")));
        assert_eq!(store.load(&key("a")).unwrap(), Some(checkpoint("a", 1)));
        assert!(store.warnings().iter().any(|w| w.contains("discarded 1 of 2")));
    }

    #[test]
    fn quarantine_records_append() {
        use crate::supervise::QuarantineRecord;
        let (mut store, io) = open_mem();
        for trial in [3u64, 9] {
            store
                .quarantine(&QuarantineRecord {
                    label: "a".to_string(),
                    trial,
                    shard: 0,
                    plan: None,
                    panic: "boom".to_string(),
                })
                .unwrap();
        }
        let text = io.contents(&store.quarantine_path()).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 2);
    }

    #[test]
    fn second_writer_is_rejected_and_stale_locks_are_broken() {
        let io = MemIo::default();
        let dir = PathBuf::from("/mem");
        // pid 1 is alive in any Linux environment this test runs in.
        io.clone().create_new(&dir.join("LOCK"), b"1").unwrap();
        let Err(err) = CheckpointStore::open_with_io(dir.clone(), Box::new(io.clone())) else {
            panic!("second writer must be rejected");
        };
        assert!(matches!(err, StoreError::Locked { .. }), "{err}");
        // A lock held by a dead pid is broken with a warning.
        io.0.borrow_mut().files.insert(dir.join("LOCK"), b"4294967294".to_vec());
        let store = CheckpointStore::open_with_io(dir, Box::new(io.clone())).unwrap();
        assert!(store.warnings().iter().any(|w| w.contains("stale lock")));
    }
}
