//! Regenerates every paper figure in one run, sharing the Section 5
//! equilibrium panel (run: `cargo run -p subcomp-exp --bin all_figures`).
use subcomp_exp::figures::{fig10, fig11, fig4, fig5, fig7, fig8, fig9, panel};
use subcomp_exp::report::results_dir;

fn main() {
    let dir = results_dir();

    println!("=== Section 3.2 (one-sided pricing) ===\n");
    let prices35 = fig4::default_prices(51);
    let f4 = fig4::compute(&prices35).expect("fig4");
    println!("{}", f4.render());
    println!("fig4 shape: {:?}", f4.check_shape());
    f4.write_csv(&dir.join("fig4.csv")).expect("csv");

    let f5 = fig5::compute(&prices35).expect("fig5");
    println!("{}", f5.render());
    println!("fig5 shape: {:?}", f5.check_shape());
    f5.write_csv(&dir.join("fig5.csv")).expect("csv");

    println!("\n=== Section 5 (subsidization competition) ===\n");
    let panel = panel::compute(41, 5).expect("panel");

    let f7 = fig7::compute(&panel);
    println!("{}", f7.render());
    println!("fig7 shape: {:?}", f7.check_shape());
    let (p_star, r_star) = f7.revenue_peak(f7.qs.len() - 1);
    println!("revenue peak at q = {}: p = {p_star:.3}, R = {r_star:.4}", f7.qs[f7.qs.len() - 1]);
    f7.write_csv(&dir.join("fig7.csv")).expect("csv");

    let f8 = fig8::compute(&panel);
    println!("{}", f8.render());
    println!("fig8 shape: {:?}", fig8::check_shape(&f8).expect("runs"));
    f8.write_csv(&dir.join("fig8.csv")).expect("csv");

    let f9 = fig9::compute(&panel);
    println!("{}", f9.render());
    println!("fig9 shape: {:?}", fig9::check_shape(&f9).expect("runs"));
    f9.write_csv(&dir.join("fig9.csv")).expect("csv");

    let f10 = fig10::compute(&panel);
    println!("{}", f10.render());
    println!("fig10 shape: {:?}", fig10::check_shape(&f10, 0).expect("runs"));
    let exceptions = fig10::exception_prices(&f10, 0, f10.qs.len() - 1);
    println!(
        "paper's (2,5,1) exception (loses vs baseline) observed at prices: {:?}",
        &exceptions[..exceptions.len().min(8)]
    );
    f10.write_csv(&dir.join("fig10.csv")).expect("csv");

    let f11 = fig11::compute(&panel);
    println!("{}", f11.render());
    println!("fig11 shape: {:?}", fig11::check_shape(&f11, 0, f11.qs.len() - 1).expect("runs"));
    f11.write_csv(&dir.join("fig11.csv")).expect("csv");

    println!("\nall CSVs written under {}", dir.display());
}
