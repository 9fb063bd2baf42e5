// Package lib holds one exported identifier of each kind the check must
// tell apart.
package lib

// Dead has no caller: the check reports it.
func Dead() int { return 0 }

// Used is called from cmd/app.
func Used() int { return 1 }

// Reader is read only through io.ByteReader.
type Reader struct{ b []byte }

// ReadByte is reached through io.ByteReader alone.
func (r *Reader) ReadByte() (byte, error) {
	if len(r.b) == 0 {
		return 0, nil
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

// Config travels as JSON: its tagged field is read by reflection.
type Config struct {
	Name string `json:"name"`
}

// Kept has no caller but an allowlist line.
func Kept() {}
