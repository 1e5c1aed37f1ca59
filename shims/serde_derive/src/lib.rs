//! No-op `Serialize`/`Deserialize` derives for the offline build.
//!
//! Nothing in the workspace serializes through serde (the deployment
//! plan writes its JSON by hand in `c2pi_core::planner::DeploymentPlan::to_json`,
//! and the material store its own binary log), so the derives only need
//! to exist, not to generate code.

use proc_macro::TokenStream;

/// Accepts the standard `#[serde(...)]` helper attribute and emits
/// nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts the standard `#[serde(...)]` helper attribute and emits
/// nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
