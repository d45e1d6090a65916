//! Typed physical and economic quantities for the `space-udc` toolkit.
//!
//! Every model in the workspace exchanges values through the newtypes defined
//! here (watts, kilograms, dollars, …) instead of bare `f64`s, so that a
//! radiator area can never be fed into a function expecting a solar-array
//! area and a recurring cost can never be silently added to a mass.
//!
//! # Examples
//!
//! ```
//! use sudc_units::{Watts, Seconds, Joules};
//!
//! let power = Watts::new(350.0);
//! let time = Seconds::new(2.0);
//! let energy: Joules = power * time;
//! assert_eq!(energy, Joules::new(700.0));
//! ```
//!
//! Quantities of the same kind support addition, subtraction, scaling by
//! `f64`, and division (yielding a dimensionless ratio):
//!
//! ```
//! use sudc_units::Usd;
//!
//! let total = Usd::new(100.0) + Usd::new(20.0);
//! assert_eq!(total / Usd::new(60.0), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sudc_errors::{Diagnostics, SudcError, Violation};

/// Defines an `f64`-backed quantity newtype with standard arithmetic.
///
/// The generated type derives the common traits (`Copy`, `Clone`, ordering,
/// `Debug`, `Default`) and implements:
///
/// - `Add`, `Sub`, `Neg`, `Sum` between like quantities,
/// - `Mul<f64>` / `Div<f64>` scaling (both directions for `Mul`),
/// - `Div<Self> -> f64` producing a dimensionless ratio,
/// - `Display` rendering the value followed by the unit symbol.
///
/// # Examples
///
/// ```
/// sudc_units::quantity!(
///     /// Number of reaction wheels.
///     Wheels, "wheels"
/// );
/// let w = Wheels::new(4.0);
/// assert_eq!((w * 2.0).value(), 8.0);
/// assert_eq!(w.to_string(), "4 wheels");
/// ```
#[macro_export]
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value in base units.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Fallible constructor: rejects NaN and ±∞ with a structured
            /// diagnostic naming the quantity type.
            ///
            /// [`new`](Self::new) stays available for trusted (e.g.
            /// compile-time constant) values; `try_new` is the entry point
            /// for caller-supplied parameters.
            ///
            /// # Errors
            ///
            /// Returns a [`$crate::SudcError`] if `value` is not finite.
            ///
            /// Kept without a non-test caller: `tests/panic_freedom.rs` checks
            /// that it accepts exactly the finite values.
            pub fn try_new(value: f64) -> ::core::result::Result<Self, $crate::SudcError> {
                if value.is_finite() {
                    Ok(Self(value))
                } else {
                    Err($crate::SudcError::single(
                        stringify!($name),
                        concat!(stringify!($name), ".value"),
                        value,
                        "a finite number",
                    ))
                }
            }

            /// Returns the raw value in base units.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor ±∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl ::core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl ::core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl ::core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl ::core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl ::core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl ::core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl ::core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl ::core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl ::core::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl ::core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> ::core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl ::core::fmt::Display for $name {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl ::core::convert::From<$name> for f64 {
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity!(
    /// Electrical or thermal power, in watts.
    Watts,
    "W"
);

quantity!(
    /// Mass, in kilograms.
    Kilograms,
    "kg"
);

quantity!(
    /// Length, in meters.
    Meters,
    "m"
);

quantity!(
    /// Area, in square meters.
    SquareMeters,
    "m^2"
);

quantity!(
    /// Absolute temperature, in kelvin.
    Kelvin,
    "K"
);

quantity!(
    /// Time, in seconds.
    Seconds,
    "s"
);

quantity!(
    /// Time, in (Julian) years.
    Years,
    "yr"
);

quantity!(
    /// Monetary value, in US dollars.
    Usd,
    "$"
);

quantity!(
    /// Energy, in joules.
    Joules,
    "J"
);

quantity!(
    /// Data rate, in gigabits per second.
    GigabitsPerSecond,
    "Gbit/s"
);

quantity!(
    /// Data volume, in gigabits.
    Gigabits,
    "Gbit"
);

quantity!(
    /// Compute throughput, in tera floating-point operations per second.
    Teraflops,
    "TFLOPS"
);

quantity!(
    /// Accumulated ionizing dose, in kilorads (silicon).
    KradSi,
    "krad(Si)"
);

quantity!(
    /// Dose rate, in kilorads (silicon) per year.
    KradSiPerYear,
    "krad(Si)/yr"
);

quantity!(
    /// Velocity, in meters per second.
    MetersPerSecond,
    "m/s"
);

quantity!(
    /// Specific power, in watts per kilogram.
    WattsPerKilogram,
    "W/kg"
);

quantity!(
    /// Areal mass density, in kilograms per square meter.
    KilogramsPerSquareMeter,
    "kg/m^2"
);

quantity!(
    /// Pixel throughput per unit energy, in kilopixels per joule.
    KilopixelsPerJoule,
    "kpixel/J"
);

quantity!(
    /// Pixel rate, in megapixels per second.
    MegapixelsPerSecond,
    "Mpixel/s"
);

const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

impl Watts {
    /// Creates a power from kilowatts.
    ///
    /// ```
    /// use sudc_units::Watts;
    /// assert_eq!(Watts::from_kilowatts(4.0), Watts::new(4000.0));
    /// ```
    #[must_use]
    pub fn from_kilowatts(kw: f64) -> Self {
        Self::new(kw * 1e3)
    }

    /// Returns the power expressed in kilowatts.
    #[must_use]
    pub fn as_kilowatts(self) -> f64 {
        self.value() / 1e3
    }
}

impl Kelvin {
    /// Creates an absolute temperature from degrees Celsius.
    ///
    /// ```
    /// use sudc_units::Kelvin;
    /// assert!((Kelvin::from_celsius(45.0).value() - 318.15).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn from_celsius(c: f64) -> Self {
        Self::new(c + 273.15)
    }

    /// Returns the temperature expressed in degrees Celsius.
    #[must_use]
    pub fn as_celsius(self) -> f64 {
        self.value() - 273.15
    }
}

impl Years {
    /// Converts to seconds (Julian year: 365.25 days).
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.value() * SECONDS_PER_YEAR)
    }
}

impl Usd {
    /// Creates a monetary value from millions of dollars.
    ///
    /// ```
    /// use sudc_units::Usd;
    /// assert_eq!(Usd::from_millions(1.5), Usd::new(1_500_000.0));
    /// ```
    #[must_use]
    pub fn from_millions(m: f64) -> Self {
        Self::new(m * 1e6)
    }

    /// Returns the value expressed in millions of dollars.
    #[must_use]
    pub fn as_millions(self) -> f64 {
        self.value() / 1e6
    }
}

impl core::ops::Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl core::ops::Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl core::ops::Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

impl core::ops::Div<Kilograms> for Watts {
    type Output = WattsPerKilogram;
    fn div(self, rhs: Kilograms) -> WattsPerKilogram {
        WattsPerKilogram::new(self.value() / rhs.value())
    }
}

impl core::ops::Mul<Kilograms> for WattsPerKilogram {
    type Output = Watts;
    fn mul(self, rhs: Kilograms) -> Watts {
        Watts::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<SquareMeters> for KilogramsPerSquareMeter {
    type Output = Kilograms;
    fn mul(self, rhs: SquareMeters) -> Kilograms {
        Kilograms::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<Seconds> for GigabitsPerSecond {
    type Output = Gigabits;
    fn mul(self, rhs: Seconds) -> Gigabits {
        Gigabits::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<Seconds> for Gigabits {
    type Output = GigabitsPerSecond;
    fn div(self, rhs: Seconds) -> GigabitsPerSecond {
        GigabitsPerSecond::new(self.value() / rhs.value())
    }
}

impl core::ops::Mul<Years> for KradSiPerYear {
    type Output = KradSi;
    fn mul(self, rhs: Years) -> KradSi {
        KradSi::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_between_like_quantities() {
        let a = Watts::new(100.0);
        let b = Watts::new(50.0);
        assert_eq!(a + b, Watts::new(150.0));
        assert_eq!(a - b, Watts::new(50.0));
        assert_eq!(-b, Watts::new(-50.0));
        assert_eq!(a / b, 2.0);
        assert_eq!(a * 3.0, Watts::new(300.0));
        assert_eq!(3.0 * a, Watts::new(300.0));
        assert_eq!(a / 4.0, Watts::new(25.0));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut w = Watts::new(10.0);
        w += Watts::new(5.0);
        assert_eq!(w, Watts::new(15.0));
        w -= Watts::new(10.0);
        assert_eq!(w, Watts::new(5.0));
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [Usd::new(1.0), Usd::new(2.0), Usd::new(3.0)];
        let total: Usd = parts.iter().copied().sum();
        assert_eq!(total, Usd::new(6.0));
        let total_ref: Usd = parts.iter().sum();
        assert_eq!(total_ref, Usd::new(6.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Watts::new(350.0).to_string(), "350 W");
        assert_eq!(Kelvin::new(318.15).to_string(), "318.15 K");
        assert_eq!(Usd::new(1690.0).to_string(), "1690 $");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Watts::ZERO).is_empty());
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(100.0) * Seconds::new(60.0);
        assert_eq!(e, Joules::new(6000.0));
        assert_eq!(Seconds::new(60.0) * Watts::new(100.0), e);
        assert_eq!(e / Seconds::new(60.0), Watts::new(100.0));
        assert_eq!(e / Watts::new(100.0), Seconds::new(60.0));
    }

    #[test]
    fn specific_power_roundtrip() {
        let sp = Watts::new(700.0) / Kilograms::new(20.0);
        assert_eq!(sp, WattsPerKilogram::new(35.0));
        assert_eq!(sp * Kilograms::new(20.0), Watts::new(700.0));
    }

    #[test]
    fn areal_density_times_area_is_mass() {
        let m = KilogramsPerSquareMeter::new(3.5) * SquareMeters::new(4.0);
        assert_eq!(m, Kilograms::new(14.0));
    }

    #[test]
    fn data_rate_times_time_is_volume() {
        let v = GigabitsPerSecond::new(25.0) * Seconds::new(4.0);
        assert_eq!(v, Gigabits::new(100.0));
        assert_eq!(v / Seconds::new(4.0), GigabitsPerSecond::new(25.0));
    }

    #[test]
    fn dose_rate_times_years_is_dose() {
        let dose = KradSiPerYear::new(0.5) * Years::new(5.0);
        assert_eq!(dose, KradSi::new(2.5));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Watts::from_kilowatts(4.0).as_kilowatts(), 4.0);
        assert!((Kelvin::from_celsius(45.0).as_celsius() - 45.0).abs() < 1e-12);
        assert_eq!(
            Years::new(2.0).to_seconds(),
            Seconds::new(2.0 * 365.25 * 86_400.0)
        );
        assert_eq!(Usd::from_millions(2.0).as_millions(), 2.0);
    }

    #[test]
    fn abs_drops_the_sign() {
        assert_eq!(Kilograms::new(-3.0).abs(), Kilograms::new(3.0));
    }

    #[test]
    fn json_roundtrip_is_transparent() {
        // Quantities serialize as their bare value (no wrapper object).
        let w = Watts::new(123.5);
        let json = sudc_par::json::Json::Num(w.value()).to_string_compact();
        assert_eq!(json, "123.5");
        let back = Watts::new(json.parse().unwrap());
        assert_eq!(back, w);
    }

    #[test]
    fn from_quantity_for_f64() {
        let x: f64 = Watts::new(7.0).into();
        assert_eq!(x, 7.0);
    }

    #[test]
    fn try_new_accepts_finite_and_rejects_non_finite() {
        assert_eq!(Watts::try_new(42.5).unwrap(), Watts::new(42.5));
        assert_eq!(Usd::try_new(-3.0).unwrap(), Usd::new(-3.0));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Kilograms::try_new(bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("Kilograms"), "{msg}");
            assert_eq!(err.violations().len(), 1);
            assert_eq!(err.violations()[0].path, "Kilograms.value");
        }
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Watts>();
        assert_send_sync::<Usd>();
    }
}
