//! Workload definitions and their inputs: configurations, datasets
//! generated from the seed, and the run-private directory they live in.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use pvr_core::{CompositorPolicy, FrameConfig, IoMode};
use pvr_formats::write_file;
use pvr_volume::SupernovaField;
use rayon::prelude::*;

/// The three workloads. README.md records why each exists and which
/// layers it stresses or bypasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined six-step rayon movie: the render kernel dominates.
    MovieRender,
    /// Sequential rayon frames cycling the five Fig. 10 layouts: the
    /// read paths dominate.
    IoLayouts,
    /// 4096-rank frames on the discrete-event message-passing core:
    /// the event core and the compositing exchange dominate.
    Sim4096,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MovieRender,
        Workload::IoLayouts,
        Workload::Sim4096,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MovieRender => "movie-render",
            Workload::IoLayouts => "io-layouts",
            Workload::Sim4096 => "sim-4096",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn executor(self) -> &'static str {
        match self {
            Workload::MovieRender | Workload::IoLayouts => "rayon",
            Workload::Sim4096 => "mpisim-event",
        }
    }

    /// The configuration every frame of the workload shares (the
    /// layout of `io-layouts` frames varies per frame).
    pub fn config(self, seed: u64) -> FrameConfig {
        match self {
            Workload::MovieRender => FrameConfig {
                variable: 2,
                shading: true,
                seed,
                ..FrameConfig::small(128, 640, 8)
            },
            Workload::IoLayouts => FrameConfig {
                variable: 2,
                seed,
                ..FrameConfig::small(160, 128, 16)
            },
            Workload::Sim4096 => FrameConfig {
                io: IoMode::NetCdfUntuned,
                policy: CompositorPolicy::Original,
                variable: 2,
                seed,
                ..FrameConfig::small(128, 256, 4096)
            },
        }
    }
}

/// Time steps of the `movie-render` movie.
const MOVIE_STEPS: usize = 6;

/// A directory private to one benchmark process, under `.bench_run/`
/// in the working directory. Removed, with everything in it, on drop.
pub struct RunDir {
    path: PathBuf,
}

const RUN_ROOT: &str = ".bench_run";

impl RunDir {
    pub fn create(workload: Workload) -> io::Result<RunDir> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = Path::new(RUN_ROOT).join(format!(
            "{}-{}-{nanos}",
            workload.name(),
            std::process::id()
        ));
        fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Succeeds only once no other run still uses the root.
        let _ = fs::remove_dir(RUN_ROOT);
    }
}

/// One pass of a workload: the frames it renders, in timed order, each
/// with the configuration it runs under and its dataset file.
pub struct Inputs {
    pub frames: Vec<(FrameConfig, PathBuf)>,
}

/// Write the workload's datasets for `seed` into a fresh directory
/// `dir`. Each file is written under a temporary name and renamed into
/// place, so no reader can ever see a partial dataset.
pub fn generate(w: Workload, seed: u64, dir: &Path) -> io::Result<Inputs> {
    fs::create_dir_all(dir)?;
    let base = w.config(seed);
    let frames = match w {
        Workload::MovieRender => (0..MOVIE_STEPS)
            .map(|t| {
                let step = FrameConfig {
                    seed: seed.wrapping_add(t as u64),
                    ..base
                };
                let path = write_atomic(dir, &format!("step{t}.dat"), &step, &sample(&step))?;
                Ok((step, path))
            })
            .collect::<io::Result<Vec<_>>>()?,
        Workload::IoLayouts => {
            let field = sample(&base);
            // Tuned and untuned netCDF differ only in MPI-IO hints, so
            // they read the same file.
            let mut frames: Vec<(FrameConfig, PathBuf)> = Vec::new();
            for io in IoMode::ALL {
                let cfg = FrameConfig { io, ..base };
                let kind = io.layout(cfg.grid).kind();
                let twin = frames
                    .iter()
                    .find(|(c, _)| c.io.layout(c.grid).kind() == kind)
                    .map(|(_, p)| p.clone());
                let path = match twin {
                    Some(p) => p,
                    None => write_atomic(dir, &format!("{}.dat", io.name()), &cfg, &field)?,
                };
                frames.push((cfg, path));
            }
            frames
        }
        Workload::Sim4096 => {
            vec![(base, write_atomic(dir, "frame.dat", &base, &sample(&base))?)]
        }
    };
    Ok(Inputs { frames })
}

/// Sample the render variable of `cfg`'s synthetic field at the cell
/// centres of its grid (the values `write_dataset` would store), in
/// parallel over z slabs.
fn sample(cfg: &FrameConfig) -> Vec<f32> {
    let field = SupernovaField::new(cfg.seed);
    let [nx, ny, nz] = cfg.grid;
    let mut data = vec![0.0f32; nx * ny * nz];
    data.par_chunks_mut(nx * ny)
        .enumerate()
        .for_each(|(z, slab)| {
            for y in 0..ny {
                for x in 0..nx {
                    slab[y * nx + x] = field.sample_var(
                        cfg.variable,
                        (x as f32 + 0.5) / nx as f32,
                        (y as f32 + 0.5) / ny as f32,
                        (z as f32 + 0.5) / nz as f32,
                    );
                }
            }
        });
    data
}

/// Write `cfg`'s dataset in its layout to `dir/name`, through a
/// temporary name and a rename. Every variable slot of a multivariate
/// layout holds the sampled render variable: frames read and decode
/// only that variable, and which bytes fill the others changes no work
/// the program does, so the set-up samples the field once, not five
/// times.
fn write_atomic(dir: &Path, name: &str, cfg: &FrameConfig, field: &[f32]) -> io::Result<PathBuf> {
    let tmp = dir.join(format!("{name}.partial"));
    let dst = dir.join(name);
    let [nx, ny, _] = cfg.grid;
    write_file(&tmp, cfg.io.layout(cfg.grid).as_ref(), |_, x, y, z| {
        field[(z * ny + y) * nx + x]
    })?;
    fs::rename(&tmp, &dst)?;
    Ok(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_core::write_dataset;
    use pvr_formats::{read_subvolume, Subvolume};

    /// The benchmark's generator stores exactly the render-variable
    /// values `write_dataset` stores, in every layout.
    #[test]
    fn render_variable_matches_write_dataset() {
        let dir = std::env::temp_dir().join(format!("perfbench-setup-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for io in [IoMode::Raw, IoMode::NetCdfUntuned, IoMode::Hdf5] {
            let cfg = FrameConfig {
                io,
                variable: 2,
                seed: 7,
                ..FrameConfig::small(12, 8, 1)
            };
            let ours = write_atomic(&dir, "ours.dat", &cfg, &sample(&cfg)).unwrap();
            let theirs = dir.join("theirs.dat");
            write_dataset(&theirs, &cfg).unwrap();
            let layout = cfg.io.layout(cfg.grid);
            let whole = Subvolume::whole(cfg.grid);
            let read = |p: &Path| {
                let mut f = fs::File::open(p).unwrap();
                read_subvolume(&mut f, layout.as_ref(), cfg.file_variable(), &whole).unwrap()
            };
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(read(&ours)), bits(read(&theirs)), "{}", io.name());
            assert!(!dir.join("ours.dat.partial").exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
