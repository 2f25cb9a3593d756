//! No-op `Serialize` / `Deserialize` derives. The repository derives
//! these ~80 times but never calls a serializer (all artifacts go through
//! `drs_obs::jsonfmt`), so expanding to nothing preserves behaviour.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
