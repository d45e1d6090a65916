use sudc_core::design::SuDcDesign;
use sudc_units::{Watts, Years};

#[test]
#[ignore]
fn calibration_print() {
    for kw in [0.5, 4.0, 10.0] {
        let d = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(kw))
            .try_build()
            .unwrap();
        let s = d.size().unwrap();
        let r = s.try_tco().unwrap();
        println!("--- {kw} kW ---");
        println!("isl {:.1}, eol {:.0} W, bol {:.0} W, dry {:.0} kg, fuel {:.1} kg, payload {:.0} kg / {:.2} $M",
            s.isl_rate.value(), s.power.eol_load.value(), s.power.bol_array_power().value(),
            s.dry_mass.value(), s.fuel_mass.value(), s.payload_mass.value(), s.payload_price.as_millions());
        println!(
            "TCO {:.1} $M  (nre {:.1}, launch {:.1}, ops {:.1})",
            r.total().as_millions(),
            r.nre().as_millions(),
            r.launch_cost().as_millions(),
            r.operations_cost().as_millions()
        );
        for (line, cost) in r.lines() {
            println!(
                "  {:20} {:7.2} $M  {:5.1}%",
                line.to_string(),
                cost.as_millions(),
                100.0 * r.share(line)
            );
        }
    }
    for yr in [1.0, 5.0, 9.0] {
        let r = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .lifetime(Years::new(yr))
            .try_build()
            .unwrap()
            .try_tco()
            .unwrap();
        println!("lifetime {yr}: {:.1} $M", r.total().as_millions());
    }
}

#[test]
#[ignore]
fn calibration_print2() {
    use sudc_core::analysis::{architecture, fleet};
    use sudc_terrestrial::PriceScaling;
    let s = architecture::efficiency_scaling(
        Watts::from_kilowatts(4.0),
        &[1.0, 10.0, 100.0, 1000.0],
        PriceScaling::Constant,
    )
    .unwrap();
    for series in &s {
        println!(
            "{}: {:?}",
            series.label,
            series
                .points
                .iter()
                .map(|p| (p.0, (p.1 * 1000.0).round() / 1000.0))
                .collect::<Vec<_>>()
        );
    }
    for b in [0.65, 0.75, 0.85] {
        let d = fleet::distributed_tco(
            Watts::from_kilowatts(32.0),
            &[1, 2, 3, 4, 6, 8, 12, 16],
            &[b],
        )
        .unwrap();
        println!(
            "b={b}: optimal={} points={:?}",
            d[0].optimal_satellites,
            d[0].points
                .iter()
                .map(|p| (p.0, (p.1 * 100.0).round() / 100.0))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
#[ignore]
fn calibration_print3() {
    let base = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .try_build()
        .unwrap();
    let spared = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .spares(20)
        .try_build()
        .unwrap();
    let (b, s) = (base.size().unwrap(), spared.size().unwrap());
    let (b_tco, s_tco) = (b.try_tco().unwrap().total(), s.try_tco().unwrap().total());
    println!("payload mass {} -> {}", b.payload_mass, s.payload_mass);
    println!("payload price {} -> {}", b.payload_price, s.payload_price);
    println!("dry {} -> {}", b.dry_mass, s.dry_mass);
    println!(
        "tco {} -> {} (ratio {})",
        b_tco.as_millions(),
        s_tco.as_millions(),
        s_tco / b_tco
    );
}
