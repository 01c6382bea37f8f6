//! The store directory behind [`crate::wal`]: the [`Op`]s the WAL and
//! recovery say to perform, and the one [`Disk`] driver that performs
//! them — the file system, [`Fs`], in production.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A file of a store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Name {
    /// `changes.wal`: the write-ahead log.
    Wal,
    /// `snapshot.tmp`: a snapshot being written.
    Tmp,
    /// `snapshot-<epoch>.snap`, the epoch zero-padded to 20 digits so that
    /// name order is epoch order.
    Snapshot(u64),
}

/// One effect on a store directory, naming a file in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// Append the bytes to the file, creating it if absent.
    Write(Name, Vec<u8>),
    /// Make the file's bytes and length durable (`fdatasync`).
    Sync(Name),
    /// Move the first file over the second, atomically.
    Rename(Name, Name),
    /// Make the directory's entries durable: the files created, renamed
    /// and removed in it.
    SyncDir,
    /// Cut the file to a length, creating it empty if absent.
    Truncate(Name, u64),
    /// Unlink the file.
    Remove(Name),
}

/// The driver of one store directory: it performs [`Op`]s, and reads.
pub(crate) trait Disk: std::fmt::Debug + Send + Sync {
    /// Perform one op. On an error the op may have been done in part.
    fn perform(&mut self, op: Op) -> io::Result<()>;
    /// The epochs of the directory's snapshots.
    fn snapshots(&self) -> io::Result<Vec<u64>>;
    /// A file's bytes; `None` when it is absent.
    fn read(&self, name: Name) -> io::Result<Option<Vec<u8>>>;
}

/// The production driver: a directory of the file system. It keeps the
/// file it last wrote open — the WAL, across appends.
#[derive(Debug)]
pub(crate) struct Fs {
    dir: PathBuf,
    open: Option<(Name, File)>,
}

impl Fs {
    /// The driver of `dir`, which is created if absent.
    pub(crate) fn new(dir: &Path) -> io::Result<Fs> {
        std::fs::create_dir_all(dir)?;
        Ok(Fs {
            dir: dir.to_path_buf(),
            open: None,
        })
    }

    /// The handle of `name`, opened for appending unless it is the one kept.
    fn file(&mut self, name: Name) -> io::Result<&mut File> {
        let file = match self.open.take() {
            Some((open, file)) if open == name => file,
            _ => (OpenOptions::new().create(true).append(true)).open(path(&self.dir, name))?,
        };
        Ok(&mut self.open.insert((name, file)).1)
    }
}

fn path(dir: &Path, name: Name) -> PathBuf {
    match name {
        Name::Wal => dir.join("changes.wal"),
        Name::Tmp => dir.join("snapshot.tmp"),
        Name::Snapshot(epoch) => dir.join(format!("snapshot-{epoch:020}.snap")),
    }
}

impl Disk for Fs {
    fn perform(&mut self, op: Op) -> io::Result<()> {
        if let Op::Rename(..) | Op::Remove(_) = op {
            // A kept handle would follow its file, not the name.
            self.open = None;
        }
        match op {
            Op::Write(name, bytes) => self.file(name)?.write_all(&bytes),
            Op::Sync(name) => self.file(name)?.sync_data(),
            Op::Truncate(name, len) => self.file(name)?.set_len(len),
            Op::Rename(from, to) => std::fs::rename(path(&self.dir, from), path(&self.dir, to)),
            Op::Remove(name) => std::fs::remove_file(path(&self.dir, name)),
            Op::SyncDir => File::open(&self.dir)?.sync_all(),
        }
    }

    fn snapshots(&self) -> io::Result<Vec<u64>> {
        let names = std::fs::read_dir(&self.dir)?.flatten();
        let epochs = names.filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let epoch = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
            epoch.parse().ok()
        });
        Ok(epochs.collect())
    }

    fn read(&self, name: Name) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path(&self.dir, name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            read => read.map(Some),
        }
    }
}

#[cfg(test)]
pub(crate) use recording::{Crash, Files, Matching, RecordingDisk};

#[cfg(test)]
mod recording {
    //! The recording disk: a store directory in memory. It keeps every op
    //! performed on it, in order, with what the op reached — the file (its
    //! inode, so that a rename carries the file's history with it), where a
    //! write's bytes went, whether the op made its file — and from that
    //! trace builds the crash states, after Pillai et al., "All File
    //! Systems Are Not Created Equal" (OSDI 2014).
    //!
    //! The model is POSIX's, with nothing a particular file system adds: a
    //! file's bytes are durable once a later `Sync` of it has run, and a
    //! directory entry (a creation, a rename, a removal) once a later
    //! `SyncDir` has.

    use super::{Disk, Name, Op};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::io;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The files of a store directory, by name: what a crash leaves.
    pub(crate) type Files = BTreeMap<Name, Vec<u8>>;

    /// Which ops a fault is armed for.
    pub(crate) type Matching = fn(&Op) -> bool;

    /// The crash a state is one of.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Crash {
        /// The process died: every op it performed is kept, and a write it
        /// was inside of landed in part.
        Process,
        /// The machine lost power: an effect no sync covered may be lost,
        /// and a write torn.
        PowerLoss,
    }

    /// One op performed, as it reached the directory.
    #[derive(Debug)]
    struct Event {
        op: Op,
        /// The file a write, a truncate or a sync reached.
        inode: usize,
        /// Where a write's bytes went, and how many of them landed (half,
        /// for a write that failed).
        at: usize,
        landed: usize,
        /// The op made its file.
        created: bool,
    }

    /// The two halves of an op a crash can keep or lose apart: its
    /// directory entry (a creation, rename or removal) and its bytes (a
    /// write or a truncate).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Effect {
        Entry,
        Data,
    }

    /// What a crash state keeps of one effect.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Keep {
        All,
        Lost,
        /// The write's first bytes only.
        Torn(usize),
    }

    #[derive(Debug, Default)]
    struct State {
        /// The directory as it stood when recording began; its files are
        /// inodes `0..base.len()`, in name order.
        base: Files,
        trace: Vec<Event>,
        /// The live directory: name → inode, and every inode's bytes.
        dir: BTreeMap<Name, usize>,
        inodes: Vec<Vec<u8>>,
        /// The armed fault: pass this many matching ops, then fail one.
        fault: Option<(usize, Matching)>,
    }

    /// A store directory in memory that records the ops performed on it.
    /// Clones share the one directory.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct RecordingDisk(Arc<Mutex<State>>);

    impl RecordingDisk {
        /// A disk holding `files`, durable, with an empty trace.
        pub(crate) fn new(files: Files) -> RecordingDisk {
            let state = State {
                dir: files.keys().enumerate().map(|(i, &n)| (n, i)).collect(),
                inodes: files.values().cloned().collect(),
                base: files,
                ..State::default()
            };
            RecordingDisk(Arc::new(Mutex::new(state)))
        }

        fn state(&self) -> MutexGuard<'_, State> {
            self.0.lock().expect("no op panics while it holds the disk")
        }

        /// Fail the next op `which` matches after passing `skip` of them —
        /// once, the process living on. A failed write lands half its
        /// bytes; any other failed op does nothing.
        pub(crate) fn fail(&self, skip: usize, which: Matching) {
            self.state().fault = Some((skip, which));
        }

        /// Disarm a fault that has not fired.
        pub(crate) fn disarm(&self) {
            self.state().fault = None;
        }

        /// The ops performed so far.
        pub(crate) fn ops(&self) -> usize {
            self.state().trace.len()
        }

        /// Op `k` of the trace.
        pub(crate) fn op(&self, k: usize) -> Op {
            self.state().trace[k].op.clone()
        }

        /// The directory as the process sees it now.
        pub(crate) fn files(&self) -> Files {
            let state = self.state();
            let file = |(&name, &inode): (&Name, &usize)| (name, state.inodes[inode].clone());
            state.dir.iter().map(file).collect()
        }

        /// Every crash state after the first `k` ops, distinct, a torn
        /// write cut at an offset drawn from `rng`: the process's (the
        /// `k` ops kept, and op `k` torn if it is a write), then the power
        /// loss's — each effect no sync covers lost on its own (a write
        /// also torn), and all of them lost together.
        pub(crate) fn crash_states(&self, k: usize, rng: &mut StdRng) -> Vec<(Crash, Files)> {
            let state = self.state();
            let mut states = vec![(Crash::Process, state.replay(k, |_, _| Keep::All))];
            if let Some(next) = state.trace.get(k).filter(|e| matches!(e.op, Op::Write(..))) {
                let cut = Keep::Torn(rng.random_range(0..=next.landed));
                let torn = state.replay(k + 1, |i, effect| match (i, effect) {
                    (i, Effect::Data) if i == k => cut,
                    _ => Keep::All,
                });
                states.push((Crash::Process, torn));
            }
            let unsynced = state.unsynced(k);
            for &(at, effect) in &unsynced {
                let mut losses = vec![Keep::Lost];
                if let (Op::Write(..), Effect::Data) = (&state.trace[at].op, effect) {
                    losses.push(Keep::Torn(rng.random_range(0..=state.trace[at].landed)));
                }
                for loss in losses {
                    let keep = |i, e| {
                        if (i, e) == (at, effect) {
                            loss
                        } else {
                            Keep::All
                        }
                    };
                    states.push((Crash::PowerLoss, state.replay(k, keep)));
                }
            }
            if unsynced.len() > 1 {
                let lost = |i, e| match unsynced.contains(&(i, e)) {
                    true => Keep::Lost,
                    false => Keep::All,
                };
                states.push((Crash::PowerLoss, state.replay(k, lost)));
            }
            let mut distinct: Vec<(Crash, Files)> = Vec::with_capacity(states.len());
            for (crash, files) in states {
                if distinct.iter().all(|(_, seen)| *seen != files) {
                    distinct.push((crash, files));
                }
            }
            distinct
        }
    }

    impl State {
        /// The effects among the first `k` ops that no later op of those
        /// `k` makes durable.
        fn unsynced(&self, k: usize) -> Vec<(usize, Effect)> {
            let (mut synced, mut dir_synced) = (BTreeSet::new(), false);
            let mut out = Vec::new();
            for (i, event) in self.trace[..k].iter().enumerate().rev() {
                match event.op {
                    Op::Sync(_) => drop(synced.insert(event.inode)),
                    Op::SyncDir => dir_synced = true,
                    Op::Write(..) | Op::Truncate(..) => {
                        if !synced.contains(&event.inode) {
                            out.push((i, Effect::Data));
                        }
                        if event.created && !dir_synced {
                            out.push((i, Effect::Entry));
                        }
                    }
                    Op::Rename(..) | Op::Remove(_) if !dir_synced => out.push((i, Effect::Entry)),
                    Op::Rename(..) | Op::Remove(_) => {}
                }
            }
            out
        }

        /// The directory after the first `k` ops, each effect kept as
        /// `keep` says.
        fn replay(&self, k: usize, keep: impl Fn(usize, Effect) -> Keep) -> Files {
            let mut dir: BTreeMap<Name, usize> =
                self.base.keys().enumerate().map(|(i, &n)| (n, i)).collect();
            let mut inodes: Vec<Vec<u8>> = self.base.values().cloned().collect();
            inodes.resize(self.inodes.len(), Vec::new());
            for (i, event) in self.trace[..k].iter().enumerate() {
                let (entry, data) = (keep(i, Effect::Entry), keep(i, Effect::Data));
                match &event.op {
                    Op::Write(name, _) | Op::Truncate(name, _)
                        if event.created && entry != Keep::Lost =>
                    {
                        dir.insert(*name, event.inode);
                    }
                    Op::Rename(from, to) if entry != Keep::Lost => {
                        if let Some(inode) = dir.remove(from) {
                            dir.insert(*to, inode);
                        }
                    }
                    Op::Remove(name) if entry != Keep::Lost => drop(dir.remove(name)),
                    _ => {}
                }
                let landed = match data {
                    Keep::All => event.landed,
                    Keep::Lost => continue,
                    Keep::Torn(cut) => cut.min(event.landed),
                };
                match &event.op {
                    Op::Write(_, bytes) => {
                        let (file, end) = (&mut inodes[event.inode], event.at + landed);
                        if file.len() < end {
                            file.resize(end, 0);
                        }
                        file[event.at..end].copy_from_slice(&bytes[..landed]);
                    }
                    Op::Truncate(_, len) => inodes[event.inode].resize(*len as usize, 0),
                    _ => {}
                }
            }
            dir.into_iter()
                .map(|(name, inode)| (name, std::mem::take(&mut inodes[inode])))
                .collect()
        }

        fn perform(&mut self, op: Op) -> io::Result<()> {
            let fails = match &mut self.fault {
                Some((0, which)) => which(&op),
                Some((skip, which)) => {
                    *skip -= which(&op) as usize;
                    false
                }
                None => false,
            };
            if fails {
                self.fault = None;
                if !matches!(op, Op::Write(..)) {
                    return Err(io::Error::other("injected fault"));
                }
            }
            let missing = || io::Error::from(io::ErrorKind::NotFound);
            let mut event = Event {
                inode: 0,
                at: 0,
                landed: 0,
                created: false,
                op,
            };
            match &event.op {
                Op::Write(name, _) | Op::Truncate(name, _) => {
                    event.created = !self.dir.contains_key(name);
                    if event.created {
                        self.dir.insert(*name, self.inodes.len());
                        self.inodes.push(Vec::new());
                    }
                    event.inode = self.dir[name];
                    let file = &mut self.inodes[event.inode];
                    match &event.op {
                        Op::Write(_, bytes) => {
                            event.at = file.len();
                            event.landed = if fails { bytes.len() / 2 } else { bytes.len() };
                            file.extend_from_slice(&bytes[..event.landed]);
                        }
                        Op::Truncate(_, len) => file.resize(*len as usize, 0),
                        _ => {}
                    }
                }
                Op::Sync(name) => event.inode = *self.dir.get(name).ok_or_else(missing)?,
                Op::Rename(from, to) => {
                    let inode = self.dir.remove(from).ok_or_else(missing)?;
                    self.dir.insert(*to, inode);
                }
                Op::Remove(name) => drop(self.dir.remove(name).ok_or_else(missing)?),
                Op::SyncDir => {}
            }
            self.trace.push(event);
            match fails {
                true => Err(io::Error::other("injected fault: the write landed in part")),
                false => Ok(()),
            }
        }
    }

    impl Disk for RecordingDisk {
        fn perform(&mut self, op: Op) -> io::Result<()> {
            self.state().perform(op)
        }

        fn snapshots(&self) -> io::Result<Vec<u64>> {
            let state = self.state();
            let epochs = state.dir.keys().filter_map(|name| match name {
                Name::Snapshot(epoch) => Some(*epoch),
                _ => None,
            });
            Ok(epochs.collect())
        }

        fn read(&self, name: Name) -> io::Result<Option<Vec<u8>>> {
            let state = self.state();
            Ok(state
                .dir
                .get(&name)
                .map(|&inode| state.inodes[inode].clone()))
        }
    }
}
