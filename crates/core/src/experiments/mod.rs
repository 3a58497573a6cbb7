//! The paper's three characterization studies: temperature (§5),
//! aggressor row active time (§6), and spatial variation (§7).

pub mod dose;
pub mod rowactive;
pub mod spatial;
pub mod temperature;
