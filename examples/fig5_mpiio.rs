//! The paper's Fig. 5 code, transcribed through the MPI-IO-style front
//! end, then compiled: slack analysis, scheduling, and the first entries
//! of one process's scheduling table.
//!
//! ```text
//! cargo run --release --example fig5_mpiio
//! ```

use sdds_repro::compiler::mpiio::{MpiApp, MpiAppExt};
use sdds_repro::compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
use sdds_repro::storage::StripingLayout;
use simkit::SimDuration;

fn main() {
    // MPI_File_open(..., U, &fh_U, ...); // Open files U, V, and W
    let r = 6; // R x R blocks per matrix
    let mut app = MpiApp::new("fig5-matmul", 4);
    let u = app.file_open("U", 128 * 1024, r);
    let v = app.file_open("V", 128 * 1024, r);
    let w = app.file_open("W", 128 * 1024, r * r);
    let (ru, rv, rw) = (app.region_of(u), app.region_of(v), app.region_of(w));

    // A setup phase before the multiplication (matrix generation in the
    // real code): an I/O-free stretch the scheduler can prefetch into.
    app.compute_phase(10, SimDuration::from_millis(300));

    // for m = 1, R, 1 {                // Loop on horizontal file block
    //   MPI_File_read(fh_U, ...);      // Read next block of matrix U
    //   for n = 1, R, 1 {              // Loop on vertical file block
    //     MPI_File_read(fh_V, ...);    // Read next block of matrix V
    //     for i, j, k ... W += U * V;  // Actual matrix product
    //     MPI_File_write(fh_W, ...);   // Write block of W
    //   }
    // }
    app.parallel_for("m", 0, r - 1, |body| {
        body.read(u, |e| e.var("m").rank(ru));
        body.nested_for("n", 0, r - 1, |body| {
            body.read(v, |e| e.var("n").rank(rv));
            body.compute(SimDuration::from_millis(60));
            body.write(w, |e| e.scaled("m", r).var("n").rank(rw));
        });
    });
    let program = app.close(); // MPI_File_close(&fh_U); ...

    println!("--- the program as the compiler sees it ---");
    print!("{program}");

    let trace = program.trace(SlotGranularity::unit()).expect("valid");
    let layout = StripingLayout::paper_defaults();
    let accesses = analyze_slacks(&trace, &layout).expect("consistent trace");
    let table = SchedulerConfig::paper_defaults()
        .schedule(&accesses, &trace)
        .expect("valid scheduler configuration");
    println!(
        "\ncompiled: {} accesses, {} moved earlier, mean advance {:.1} slots",
        table.scheduled_count(),
        table.moved_earlier(),
        table.mean_advance()
    );

    // The per-process scheduling table of Fig. 4 that the runtime
    // scheduler receives: each access's chosen slot and original slot.
    println!("\n--- scheduling table of process 0 (first 8 entries) ---");
    println!("access\tslot\torig\tdir\toffset\tlen");
    for e in table.for_process(0).iter().take(8) {
        println!(
            "{}\t{}\t{}\t{:?}\t{}\t{}",
            e.access_index, e.slot, e.io.slot, e.io.direction, e.io.offset, e.io.len
        );
    }
    println!("... ({} entries in all processes)", table.scheduled_count());
}
