package xdm

import (
	"fmt"
	"time"
)

// FromGo converts a Go value to an atomic value, accepting the types
// database/sql users pass as statement parameters. It is the single
// Go-to-XDM parameter conversion shared by the aqualogic facade and the
// remote client, so a parameter bound over the wire means exactly what it
// means in process.
func FromGo(v any) (Atomic, error) {
	switch v := v.(type) {
	case nil:
		return nil, fmt.Errorf("NULL parameters are not supported")
	case int:
		return Integer(v), nil
	case int32:
		return Integer(v), nil
	case int64:
		return Integer(v), nil
	case float32:
		return Double(v), nil
	case float64:
		return Double(v), nil
	case bool:
		return Boolean(v), nil
	case string:
		return String(v), nil
	case []byte:
		return String(string(v)), nil
	case time.Time:
		return DateTime{T: v}, nil
	case Atomic:
		return v, nil
	default:
		return nil, fmt.Errorf("unsupported parameter type %T", v)
	}
}
